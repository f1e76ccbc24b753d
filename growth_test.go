package repro

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/results"
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
// as are the arena's page records and list heads, and CG's recycle lists
// run through the dead objects' own records. What is left is what grows
// with classes and frames, so under every collector spec the cell
// allocates at most 0.5 MB (it reads 0.19 MB under every spec; 0.66 to
// 0.95 MB while the arena's page records were a Go slice) and the Go
// collector never runs. A per-object table back on the Go heap fails
// here first. The runtime's owner table is mapped too, under every spec
// with an Access slot.
//
// A build with no mapping (or a host that refuses one) grows all of them
// by heap.Grow's doubling, and is held to looser budgets: at most 7
// Go GC cycles (it reads 3-4); 32.8 MB allocated hook-free, 32.2 under
// CG, 54.3 with recycling and 37.6 under gen (it reads 21.6, 22.4, 33.1
// and 24.0); and 52 / 66 / 76 bytes held per handle (hook-free / CG / CG
// with recycling: the 16-byte handle, its ref slots and the bitmaps,
// plus under CG the 12-byte object record and the 1-byte owner; it reads
// 32-34 / 48 / 48 with mapOff set). Those budgets bind only where there
// is no mapping, so never on the Linux CI runners, which map every
// table. What the cell holds is what the Go heap grew by across it,
// read as zero when the collection after the cell freed more than the
// cell kept.
func TestColdCellGrowthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	const size = 100
	probe := heap.New(64 << 10)
	mapping := heap.MapTable[uint64](probe, 1) != nil
	probe.Release()
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
			onHeap := uint64(max(int64(held.HeapAlloc)-int64(before.HeapAlloc), 0))
			cycles := after.NumGC - before.NumGC
			t.Logf("%d handles: allocated %.2f MB, holding %.1f MB (%d B/handle) on the Go heap, %d GC cycles",
				handles, float64(allocated)/1e6, float64(onHeap)/1e6, onHeap/handles, cycles)
			if mapping {
				if allocated > 500_000 {
					t.Errorf("cold cell allocated %d bytes on the Go heap, budget is 0.5 MB", allocated)
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

// TestSweepGrowthBudget pins what the default demographic grid costs the
// Go heap when it runs in process on one worker, as cgsweep runs it. The
// 40 cells allocate little of their own (TestColdCellGrowthBudget); the
// engine records nothing, and the seven rows that ship a tape decode it
// on first use and replay it for all 13 of their cells (DESIGN.md §12).
// Every cell runs on a shard built for it and released once consumed,
// and a fresh shard's per-page and per-object tables are all mapped, so
// building 40 of them costs the Go heap about what recycling them
// through a pool did. The grid allocates at most 2.8 MB (it reads 2.69
// MB and no Go GC cycle, of which 0.26 MB is the seeds' decoded
// operands; with the shards pooled it read 2.66 MB and one cycle, and
// 3.54 MB with a fresh shard per cell and the arena's page records on
// the Go heap).
func TestSweepGrowthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	figs, err := experiments.DemographicFigs()
	if err != nil {
		t.Fatal(err)
	}
	prog := &obs.Progress{}
	local := results.Local{Eng: engine.New(1).SetProgress(prog), Obs: prog}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := experiments.Sweep(local, figs, io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	allocated := after.TotalAlloc - before.TotalAlloc
	s := prog.Snapshot()
	t.Logf("default grid: allocated %.2f MB on the Go heap, %d GC cycles; tapes %d recorded, %d replays",
		float64(allocated)/1e6, after.NumGC-before.NumGC, s.TapesRecorded, s.TapeReplays)
	if allocated > 2_800_000 {
		t.Errorf("default grid allocated %d bytes on the Go heap, budget is 2.8 MB", allocated)
	}
	if s.CellsComputed != 40 || s.TapesRecorded != 0 || s.TapeReplays != 13 {
		t.Errorf("default grid: %d cells computed, %d tapes recorded, %d replays; want 40, 0, 13",
			s.CellsComputed, s.TapesRecorded, s.TapeReplays)
	}
}
