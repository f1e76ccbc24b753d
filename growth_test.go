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

// TestColdCellGrowthBudget pins what one cold cell pays to grow its
// handle-indexed tables. A fresh javac size-100 cell at its tight heap
// grows every table from nothing to ~230k handles. Three of them — the
// handle table, the live bitmap and CG's object records — are reserved
// in a mapping where the build has one (DESIGN.md §5 "Tables that never
// move") and cost the Go allocator nothing; the rest (ref slab, mark
// bitmaps, reset stamps, recycle lists, gengc's tables) grow by one
// doubling rule (heap.Grow, "table growth"), so the bytes the cell
// allocates on the way stay within 3x the bytes of Go heap it ends up
// holding, and the Go collector runs at most 4 times (7 where all the
// tables are Go slices; it reads 2.0-2.5x and 2 or 4-6). Tables that
// each grow through a bare append read 4.7-4.9x and 8-16 cycles, so a
// reintroduced per-table append fails here before it shows in a sweep's
// wall time.
//
// What the tables end up holding has a budget too, in bytes per handle
// (DESIGN.md §5 "bytes per simulated object"), and a mapped table counts
// towards it at its touched length — the handle count times the record
// sizes the heap and core record tests pin, which is exact on every
// host. With every table a Go slice, held at its capacity: 52 under a
// hook-free collector (the 24-byte handle, its ref slots, the bitmaps;
// it reads 41-48), 66 under CG (plus the 16-byte object record, which
// holds the union-find forest; it reads 60-61 — the 24-byte set record
// is held per live set, ~400 of them here, and does not count), 76 where
// recycling also keeps a list of dead handles (it reads 68-69). Beside
// mapped tables, which have no capacity beyond what is touched: 45 (it
// reads 36-42), 57 (54) and 63 (59). A field added back to a record
// costs 4-8 of these (and fails its record test first), a forest or a
// free-id list beside the records 4-5, a set record per handle 24.
//
// What the cell allocates on the way has a ceiling as well, 1.15x what
// the four ledger collectors allocate — a cold cell builds everything
// from nothing, so its bytes are the same on every host: beside mapped
// tables cg 7.0 MB, cg+recycle 11.9, msa 7.2, gen 11.5; with every table
// a Go slice cg 28.0, cg+recycle 47.3, msa 28.5, gen 32.7. The ratio
// budget lets allocation and final tables grow together, the ceiling
// does not. One table back on a bare append (core's meta, all tables Go
// slices) reads 37.6 MB under cg at 2.81x, which only the ceiling fails.
func TestColdCellGrowthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	const size = 100
	// heap.handle and core.objMeta: TestHandleRecordIsSmallAndPointerFree
	// and TestRecordsAreSmallAndPointerFree hold them to these sizes.
	const handleBytes, metaBytes = 24, 16
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
			cg := strings.HasPrefix(name, "cg")
			var mapped uint64 // the three tables at their touched length
			if mapping {
				mapped = handles*handleBytes + uint64(heap.BitsetWords(int(handles)))*8
				if cg {
					mapped += handles * metaBytes
				}
			}
			allocated := after.TotalAlloc - before.TotalAlloc
			onHeap := held.HeapAlloc - before.HeapAlloc
			final := onHeap + mapped
			cycles := after.NumGC - before.NumGC
			t.Logf("%d handles: allocated %.2f MB for %.1f MB of final tables on the Go heap (%.2fx) and %.1f MB mapped (%d B/handle), %d GC cycles",
				handles, float64(allocated)/1e6, float64(onHeap)/1e6, float64(allocated)/float64(onHeap),
				float64(mapped)/1e6, final/handles, cycles)
			if allocated > 3*onHeap {
				t.Errorf("cold cell allocated %d bytes for %d bytes of final tables on the Go heap, budget is 3x", allocated, onHeap)
			}
			// Each budget beside mapped tables, then with every table a
			// Go slice.
			type budget struct{ perHandle, ceiling uint64 }
			maxCycles, budgets := [2]uint32{4, 7}, [2]budget{{45, 8_300_000}, {52, 32_800_000}}
			switch {
			case strings.Contains(name, "recycle") || strings.Contains(name, "typed"):
				budgets = [2]budget{{63, 13_700_000}, {76, 54_300_000}}
			case cg:
				budgets = [2]budget{{57, 8_100_000}, {66, 32_200_000}}
			case strings.HasPrefix(name, "gen"):
				budgets[0].ceiling, budgets[1].ceiling = 13_200_000, 37_600_000
			}
			path := 1
			if mapping {
				path = 0
			}
			if cycles > maxCycles[path] {
				t.Errorf("cold cell ran %d Go GC cycles, budget is %d", cycles, maxCycles[path])
			}
			if got := final / handles; got > budgets[path].perHandle {
				t.Errorf("final tables hold %d bytes per handle, budget is %d", got, budgets[path].perHandle)
			}
			if allocated > budgets[path].ceiling {
				t.Errorf("cold cell allocated %d bytes, ceiling is %d", allocated, budgets[path].ceiling)
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
