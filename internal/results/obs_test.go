package results

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/gengc"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCycleStatsIdenticalAcrossWorkerCounts pins the observability
// layer's determinism contract: with a deterministic clock installed,
// the per-cell cycle statistics — and therefore any order-independent
// merge of them — are identical for a -workers 1 and a -workers 8 run.
// Each Timeline draws its own clock instance lazily at its first cycle
// (and discards it on Reset), so shard resets between repeats and scheduling
// cannot perturb a cell's recorded sequence.
func TestCycleStatsIdenticalAcrossWorkerCounts(t *testing.T) {
	obs.SetClockFactory(func() func() int64 {
		var c int64
		return func() int64 { c++; return c }
	})
	defer obs.SetClockFactory(nil)

	// The Fig 4.11 configuration: forced traditional collections under
	// the resetting variant, tight heaps, every benchmark.
	var jobs []engine.Job
	for _, s := range workload.All() {
		jobs = append(jobs, engine.Job{Workload: s.Name, Size: 1, Collector: "cg+reset",
			HeapBytes: engine.TightHeap, GCEvery: 1000})
	}

	run := func(workers int) []obs.CycleStats {
		t.Helper()
		out := make([]obs.CycleStats, len(jobs))
		errs := make([]string, len(jobs))
		err := (Local{Eng: engine.New(workers)}).Run(jobs, func(i int, o Outcome) {
			errs[i] = o.Err
			if o.Obs != nil {
				out[i] = *o.Obs
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != "" {
				t.Fatalf("cell %d (%s) failed: %s", i, jobs[i].Workload, e)
			}
		}
		return out
	}

	one := run(1)
	eight := run(8)
	cycles := uint64(0)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("cell %d (%s) cycle stats diverged across worker counts:\nw1: %+v\nw8: %+v",
				i, jobs[i].Workload, one[i], eight[i])
		}
		cycles += one[i].Cycles
	}
	if cycles == 0 {
		t.Fatal("no cell recorded a collection cycle; the comparison is vacuous")
	}

	// The aggregated distribution is a bucket-wise merge, so the two
	// runs aggregate identically in any merge order.
	var fwd, rev obs.CycleStats
	for i := range one {
		fwd.Merge(&one[i])
		rev.Merge(&eight[len(eight)-1-i])
	}
	if fwd != rev {
		t.Fatalf("aggregated cycle stats depend on merge order or worker count:\n%+v\n%+v", fwd, rev)
	}
	if fwd.Pause.Count != cycles {
		t.Fatalf("pause histogram counts %d cycles, want %d", fwd.Pause.Count, cycles)
	}
}

// TestOutcomeCarriesObsAndProvThroughStore round-trips an outcome with
// cycle stats and provenance through the content-addressed store and
// checks both survive byte-exactly.
func TestOutcomeCarriesObsAndProvThroughStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Workload: "compress", Size: 1, Collector: "cg+reset",
		HeapBytes: engine.TightHeap, GCEvery: 1000}
	o := Extract(engine.Exec(job))
	if o.Err != "" {
		t.Fatal(o.Err)
	}
	if o.Prov == nil || o.Prov.GoVersion == "" {
		t.Fatalf("extract did not stamp provenance: %+v", o.Prov)
	}
	if o.Obs == nil || o.Obs.Cycles == 0 {
		t.Fatalf("forced-GC cell carries no cycle stats: %+v", o.Obs)
	}
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(job)
	if !ok || err != nil {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if *got.Obs != *o.Obs {
		t.Fatalf("cycle stats did not round-trip:\n%+v\n%+v", got.Obs, o.Obs)
	}
	if *got.Prov != *o.Prov {
		t.Fatalf("provenance did not round-trip:\n%+v\n%+v", got.Prov, o.Prov)
	}
}

// TestGenCellCountsMarked: a gen cell that collects reports the objects
// its cycles marked, as msa and cg cells do. Minor and major cycles
// both run on the mark–sweep engine, whose count the cell's timeline
// must equal.
func TestGenCellCountsMarked(t *testing.T) {
	r := engine.Exec(engine.Job{Workload: "javac", Size: 1, Collector: "gen",
		HeapBytes: engine.TightHeap, GCEvery: 1000})
	o := Extract(r)
	if o.Err != "" {
		t.Fatal(o.Err)
	}
	g := r.Col.(*gengc.System)
	if g.Stats().Minor == 0 {
		t.Fatal("the cell ran no cycle: the comparison is vacuous")
	}
	if marked := g.Engine().Stats().Marked; o.Obs == nil || o.Obs.Marked == 0 || o.Obs.Marked != marked {
		t.Fatalf("cycle stats %+v; the engine marked %d", o.Obs, marked)
	}
}
