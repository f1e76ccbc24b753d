package repro

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/results"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file holds one benchmark per table and figure of the thesis's
// evaluation, plus the ablation benches DESIGN.md calls out. Regenerate
// everything (tables included) with:
//
//	go run ./cmd/cgbench
//
// BenchmarkFigures/<id> times the full regeneration of each figure on
// the engine cgbench renders on (every worker; only the demographic
// cells may replay a tape, so from the second iteration on they do); the
// Workload/... benchmarks time one run of each SPEC analog under each
// collector, which is the raw comparison behind Figures 4.7-4.10.
//
// These are for a quick A/B while working on a layer (run a family on
// both trees, twice each); a claim is made on bench/'s end-to-end ledger
// (DESIGN.md "Why there is one ledger"). No baseline of them is
// committed.

// BenchmarkFigures renders each figure on its own, at its real sizes; a
// figure that fails fails its benchmark.
func BenchmarkFigures(b *testing.B) {
	figs, err := experiments.Figures()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(0)
	for _, f := range figs {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, errs := experiments.Render(eng, []experiments.Figure{f})
				if err := errs[0]; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkload is the raw material of the timing figures: each SPEC
// analog under each collector at size 1 and 10 (100 is exercised by
// BenchmarkFigures/4.4 and /4.9).
func BenchmarkWorkload(b *testing.B) {
	for _, spec := range workload.All() {
		for _, name := range []string{"cg", "cg+recycle", "msa", "gen"} {
			mk, err := collectors.Parse(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, size := range []int{1, 10} {
				b.Run(spec.Name+"/"+name+"/size"+strconv.Itoa(size), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rt := vm.New(heap.New(spec.HeapBytes(size)), mk())
						spec.Run(rt, size)
					}
				})
			}
		}
	}
}

// ledgerPrograms × ledgerCollectors is bench/'s collector matrix
// (matrixPrograms × matrixCollectors in bench/setup.go; jess is left
// out as the ledger leaves it out).
var (
	ledgerPrograms   = []string{"compress", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack"}
	ledgerCollectors = []string{"cg", "cg+recycle", "msa", "gen"}
)

// BenchmarkLedgerCells is the traffic the shipped binaries serve, and
// what cmd/*/default.pgo is a CPU profile of (pgo.sh records it; DESIGN.md
// §5 "Profile-guided builds"). One iteration is the 28 matrix cells,
// each cold at its tight heap as a `cgrun -workload P -size 100
// -collector C` process runs it, then one full default demographic
// sweep through a one-worker engine and results.Local, as `cgsweep
// -workers 1` runs it: plan, a shard per cell, tapes, extract, render. A cell
// that fails is reported and the rest still run, so a profile is never
// recorded from a run that stopped half way without saying so.
func BenchmarkLedgerCells(b *testing.B) {
	figs, err := experiments.DemographicFigs()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, p := range ledgerPrograms {
			for _, c := range ledgerCollectors {
				if err := ledgerCell(p, c); err != nil {
					b.Errorf("%s/100 under %s: %v", p, c, err)
				}
			}
		}
		if err := experiments.Sweep(results.Local{Eng: engine.New(1)}, figs, io.Discard); err != nil {
			b.Error(err)
		}
	}
}

// ledgerCell runs one matrix cell the way cmd/cgrun's runOne does; a
// panic inside the run (heap exhaustion is one) comes back as an error.
func ledgerCell(program, collector string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	spec, err := workload.ByName(program)
	if err != nil {
		return err
	}
	mk, err := collectors.Parse(collector)
	if err != nil {
		return err
	}
	rt := vm.New(heap.New(spec.HeapBytes(100)), mk())
	spec.Run(rt, 100)
	return nil
}

// BenchmarkStaticOptAblation measures the §3.4 optimization's runtime
// cost/benefit on the benchmark it affects most (jess).
func BenchmarkStaticOptAblation(b *testing.B) {
	spec, err := workload.ByName("jess")
	if err != nil {
		b.Fatal(err)
	}
	for _, opt := range []bool{true, false} {
		name := "opt"
		if !opt {
			name = "noopt"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A big heap isolates collector bookkeeping from
				// collection pressure: no-opt keeps far more live.
				rt := vm.New(heap.New(64<<20), core.New(core.Config{StaticOpt: opt}))
				spec.Run(rt, 1)
			}
		})
	}
}

// BenchmarkTypedRecycleAblation compares §3.7 first-fit recycling with
// the Chapter 6 by-type extension on the token-storm workload, where
// same-class churn dominates.
func BenchmarkTypedRecycleAblation(b *testing.B) {
	spec, err := workload.ByName("jack")
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"first-fit", core.Config{StaticOpt: true, Recycle: true}},
		{"by-type", core.Config{StaticOpt: true, TypedRecycle: true}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := vm.New(heap.New(spec.HeapBytes(1)), core.New(m.cfg))
				spec.Run(rt, 1)
			}
		})
	}
}

// BenchmarkResettingAblation measures the §3.6 resetting pass's overhead
// when traditional collections are forced frequently.
func BenchmarkResettingAblation(b *testing.B) {
	spec, err := workload.ByName("jess")
	if err != nil {
		b.Fatal(err)
	}
	for _, reset := range []bool{false, true} {
		name := "rebuild-only"
		if reset {
			name = "reset"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := vm.New(heap.New(64<<20), core.New(core.Config{StaticOpt: true, ResetOnGC: reset}))
				rt.SetGCEvery(5000)
				spec.Run(rt, 1)
			}
		})
	}
}

// TestFacadeQuickstart runs the quick start on the packages themselves:
// a contaminated collector frees an object when its frame pops, and the
// two baselines attach cleanly. It keeps the name it had when a root
// façade package wrapped these constructors.
func TestFacadeQuickstart(t *testing.T) {
	h := heap.New(1 << 20)
	cls := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	cg := core.New(core.DefaultConfig())
	rt := vm.New(h, cg)
	th := rt.NewThread(0)
	th.CallVoid(1, func(f *vm.Frame) {
		f.SetLocal(0, f.MustNew(cls))
	})
	if cg.Stats().Popped != 1 {
		t.Fatalf("Popped = %d, want 1", cg.Stats().Popped)
	}
	// The baselines construct and attach cleanly too.
	for _, c := range []vm.Collector{msa.NewSystem(), gengc.New()} {
		h2 := heap.New(1 << 16)
		cls2 := h2.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
		rt2 := vm.New(h2, c)
		th2 := rt2.NewThread(0)
		th2.CallVoid(1, func(f *vm.Frame) { f.SetLocal(0, f.MustNew(cls2)) })
	}
}
