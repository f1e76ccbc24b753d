package main

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/serve"
)

// Every generated input comes from the run's seed through rngFor, one
// independent stream per purpose, so the same seed gives the same
// inputs whatever order the workloads ask for them in. The programs
// under test never see the seed, only the generated flags and bodies.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed*1000003 + int64(h.Sum64()%1000003)*7919 + int64(i)))
}

// matrixCell is one (program, collector) cgrun invocation.
type matrixCell struct{ program, collector string }

func (c matrixCell) id() string { return c.program + "/" + c.collector }

// matrixOrder is the invocation order of one pass over the collector
// matrix, shuffled so no collector always runs behind the same
// neighbour.
func matrixOrder(seed int64, pass int) []matrixCell {
	var cells []matrixCell
	for _, p := range matrixPrograms {
		for _, c := range matrixCollectors {
			cells = append(cells, matrixCell{p, c})
		}
	}
	rng := rngFor(seed, "matrix", pass)
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// cellsSpec is the POSTed Cells matrix, its cells in seeded order.
func (e *env) cellsSpec(rep int) serve.Spec {
	jobs := e.matrixJobs()
	rng := rngFor(e.seed, "cells", rep)
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	spec := serve.Spec{Client: "matrix"}
	for _, j := range jobs {
		spec.Cells = append(spec.Cells, serve.CellSpec{
			Workload: j.Workload, Size: j.Size, Collector: j.Collector, HeapBytes: j.HeapBytes,
		})
	}
	return spec
}

// cellGet is one GET /cell request of the warm loop.
type cellGet struct {
	key         string
	conditional bool // sent with If-None-Match, so a 304 is expected
}

// getSample is one client iteration's GETs: a seeded sample of half the
// grid's distinct keys, every third one conditional.
func getSample(seed int64, keys []string, client, iter int) []cellGet {
	rng := rngFor(seed, "gets", client*1_000_003+iter)
	perm := rng.Perm(len(keys))
	n := len(keys) / 2
	gets := make([]cellGet, n)
	for i := range gets {
		gets[i] = cellGet{key: keys[perm[i]], conditional: i%3 == 2}
	}
	return gets
}
