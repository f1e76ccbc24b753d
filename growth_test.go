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

// TestColdCellGrowthBudget pins what one cold cell pays the Go runtime
// to grow its handle-indexed tables. A fresh javac size-100 cell at its
// tight heap grows every table from nothing to ~230k handles; with one
// doubling rule (heap.Grow, DESIGN.md §5 "table growth") the bytes it
// allocates on the way stay within 3x the bytes it ends up holding, and
// the Go collector runs at most 7 times (it reads 2.0-2.5x and 4-6).
// Tables that each grow through a bare append read 4.7-4.9x and 8-16
// cycles, so a reintroduced per-table append fails here before it shows
// in a sweep's wall time.
//
// What the tables end up holding has a budget too, in bytes per handle
// (DESIGN.md §5 "bytes per simulated object"): 52 under a hook-free
// collector (the 24-byte handle, its ref slots, the bitmaps; it reads
// 41-48), 66 under CG (plus the 16-byte object record, which holds the
// union-find forest; it reads 60-61 — the 24-byte set record is held per
// live set, ~400 of them here, and does not count), 76 where recycling
// also keeps a list of dead handles (it reads 68-69). A field added back
// to a record costs 4-8 of these, a forest or a free-id list beside the
// records 4-5, a set record per handle 24.
//
// What the cell allocates on the way has a ceiling as well, 1.15x what
// the four ledger collectors allocate (cg 28.0 MB, cg+recycle 47.3, msa
// 28.5, gen 32.7 — a cold cell builds everything from nothing, so its
// bytes are the same on every host): the ratio budget lets allocation
// and final tables grow together, the ceiling does not. One table back
// on a bare append (core's meta) reads 37.6 MB under cg at 2.81x, which
// only the ceiling fails.
func TestColdCellGrowthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	const size = 100
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

			allocated := after.TotalAlloc - before.TotalAlloc
			final := held.HeapAlloc - before.HeapAlloc
			cycles := after.NumGC - before.NumGC
			t.Logf("%d handles: allocated %.1f MB for %.1f MB of final tables (%.2fx, %d B/handle), %d GC cycles",
				rt.Heap.NumHandles(), float64(allocated)/1e6, float64(final)/1e6, float64(allocated)/float64(final),
				final/uint64(rt.Heap.NumHandles()), cycles)
			if allocated > 3*final {
				t.Errorf("cold cell allocated %d bytes for %d bytes of final tables, budget is 3x", allocated, final)
			}
			if cycles > 7 {
				t.Errorf("cold cell ran %d Go GC cycles, budget is 7", cycles)
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
			if got := final / uint64(rt.Heap.NumHandles()); got > perHandle {
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
