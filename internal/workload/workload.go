// Package workload implements size-parameterised analogs of the eight
// SPECjvm98 benchmarks the thesis evaluates (Fig 4.1): compress, jess,
// raytrace, db, javac, mpegaudio, mtrt and jack.
//
// SPECjvm98 itself is licensed and unavailable, so each analog is a
// synthetic program that (a) performs genuine work of the same kind —
// LZW coding, RETE-style matching, ray–sphere intersection, index
// queries, recursive-descent compilation, filterbank DSP, tokenisation —
// and (b) reproduces the *object demographics* the thesis reports:
// the static / collectable / thread-shared proportions (Fig 4.2–4.4,
// A.1–A.4), the equilive block-size mix (Fig 4.5) and the age-at-death
// profile (Fig 4.6). CG's results depend only on those demographics, so
// matching them preserves the experiments' shape; see DESIGN.md §2.
//
// Sizes follow SPEC's 1/10/100 convention. Object counts are scaled down
// ~20× from the originals to keep the full experiment suite runnable in
// seconds; the *ratios* are what the figures compare.
package workload

import (
	"fmt"

	"repro/internal/vm"
)

// Spec describes one benchmark analog.
type Spec struct {
	// Name matches the SPEC benchmark it models.
	Name string
	// Desc is the Fig 4.1 "description" column.
	Desc string
	// Threads reports how many threads the analog uses at the given
	// size (mtrt is multithreaded only for larger sizes, like SPEC's).
	Threads func(size int) int
	// HeapBytes suggests an arena budget that admits the run's live set
	// with slack but forces collection pressure on allocation-heavy
	// sizes (the §4.5 configuration).
	HeapBytes func(size int) int
	// Run executes the analog to completion on rt. All frames pop
	// before Run returns, so end-of-run snapshots classify every
	// object.
	Run func(rt *vm.Runtime, size int)
}

// registry holds the registered analogs in registration order (the
// thesis's table order for the built-in eight). It is populated from
// init and read-only afterwards, so the execution engine's workers may
// resolve workloads concurrently without locking.
var registry []Spec

// Register adds an analog to the matrix. Every layer — the engine, the
// experiment harness and the CLI tools — iterates the registry, so a
// new benchmark is one Register call, not edits in five places.
// Duplicate names panic: they are a wiring bug.
func Register(s Spec) {
	for _, r := range registry {
		if r.Name == s.Name {
			panic(fmt.Sprintf("workload: duplicate registration of %q", s.Name))
		}
	}
	registry = append(registry, s)
}

func init() {
	for _, s := range []Spec{
		Compress(),
		Jess(),
		Raytrace(),
		DB(),
		Javac(),
		Mpegaudio(),
		MTRT(),
		Jack(),
	} {
		Register(s)
	}
}

// All returns the registered analogs, the built-in eight first in the
// thesis's table order. The returned slice is a copy.
func All() []Spec {
	return append([]Spec(nil), registry...)
}

// ByName finds an analog by its SPEC name.
func ByName(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists the benchmark names in order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Seed is the deterministic RNG seed of a (workload, size) pair: every
// run replays the identical event stream. It is part of a cell's
// identity — the results store keys on it, so a change to the seeding
// scheme invalidates stored cells instead of silently mixing streams.
func Seed(name string, size int) int64 {
	seed := int64(size)
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	return seed
}

// single returns a Threads function for single-threaded analogs.
func single(int) int { return 1 }
