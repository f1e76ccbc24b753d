package repro

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestColdCellGrowthBudget pins what one cold cell costs the Go heap. A
// fresh javac size-100 cell at its tight heap takes every handle-indexed
// table from nothing to ~230k-290k handles. Where the build maps them,
// no such table lives on the Go heap (DESIGN.md §5 "Where per-object
// state lives"): the heap's handle table, live bitmap and ref slab, CG's
// object records, reset stamps and set records, gengc's flag and
// survival bytes and remembered list are reserved at the arena's bound,
// and CG's recycle lists run through the dead objects' own records. What
// is left is the mark bitmaps (a bit per handle) and what grows with
// classes and frames, so under every collector spec the cell allocates
// at most 1.5 MB (it reads 0.66 MB under CG, 0.95 under msa, gen and
// with recycling) and the Go collector never runs. A per-object
// table back on the Go heap fails here first. The runtime's owner table
// is mapped too, under every spec with an Access slot.
//
// A build with no mapping (or a host that refuses one) grows all of them
// by heap.Grow's doubling, and is held to looser budgets: at most 7
// Go GC cycles (it reads 4-5); 32.8 MB allocated hook-free, 32.2 under
// CG, 54.3 with recycling and 37.6 under gen (it reads 28.5, 26.4, 40.0
// and 31.8); and 52 / 66 / 76 bytes held per handle (hook-free / CG / CG
// with recycling: the 24-byte handle, its ref slots and the bitmaps,
// plus under CG the 12-byte object record and the 1-byte owner; it reads
// 41-45 / 57 / 57).
func TestColdCellGrowthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	const size = 100
	probe := heap.Mapped[uint64](1)
	mapping := probe != nil
	heap.Unmap(probe)
	for _, name := range collectors.AllSpecs() {
		t.Run(name, func(t *testing.T) {
			ev, err := collectors.New(name)
			if err != nil {
				t.Fatal(err)
			}
			var before, after, held runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rt := vm.New(heap.New(spec.HeapBytes(size)), ev)
			if oom := runCell(rt, spec, size); oom != nil {
				t.Skipf("does not complete at the tight heap: %v", oom)
			}
			runtime.ReadMemStats(&after)
			runtime.GC()
			runtime.ReadMemStats(&held)
			runtime.KeepAlive(rt)

			handles := uint64(rt.Heap.NumHandles())
			allocated := after.TotalAlloc - before.TotalAlloc
			onHeap := held.HeapAlloc - before.HeapAlloc
			cycles := after.NumGC - before.NumGC
			t.Logf("%d handles: allocated %.2f MB, holding %.1f MB (%d B/handle) on the Go heap, %d GC cycles",
				handles, float64(allocated)/1e6, float64(onHeap)/1e6, onHeap/handles, cycles)
			if mapping {
				if allocated > 1_500_000 {
					t.Errorf("cold cell allocated %d bytes on the Go heap, budget is 1.5 MB", allocated)
				}
				if cycles != 0 {
					t.Errorf("cold cell ran %d Go GC cycles, want 0", cycles)
				}
				return
			}
			perHandle, ceiling := uint64(52), uint64(32_800_000)
			switch {
			case strings.Contains(name, "recycle") || strings.Contains(name, "typed"):
				perHandle, ceiling = 76, 54_300_000
			case strings.HasPrefix(name, "cg"):
				perHandle, ceiling = 66, 32_200_000
			case strings.HasPrefix(name, "gen"):
				ceiling = 37_600_000
			}
			if cycles > 7 {
				t.Errorf("cold cell ran %d Go GC cycles, budget is 7", cycles)
			}
			if got := onHeap / handles; got > perHandle {
				t.Errorf("final tables hold %d bytes per handle, budget is %d", got, perHandle)
			}
			if allocated > ceiling {
				t.Errorf("cold cell allocated %d bytes, ceiling is %d", allocated, ceiling)
			}
		})
	}
}

// runCell drives one cell to completion, returning the panic value of
// a run the arena could not hold.
func runCell(rt *vm.Runtime, spec workload.Spec, size int) (oom any) {
	defer func() { oom = recover() }()
	spec.Run(rt, size)
	return nil
}
