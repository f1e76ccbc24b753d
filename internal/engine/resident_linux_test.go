package engine

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/vm"
)

// residentBytes reads this process's resident set size.
func residentBytes(t *testing.T) int {
	t.Helper()
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no resident set size to read: %v", err)
	}
	pages, err := strconv.Atoi(strings.Fields(string(statm))[1])
	if err != nil {
		t.Fatal(err)
	}
	return pages * os.Getpagesize()
}

// TestMappedTablesAreNotResident is TestArenaCapacityIsNotMemory for the
// tables reserved at the arena's bounds (DESIGN.md §5 "Where per-object
// state lives"): eight demographics heaps and a CG attached to each
// reserve some 26 GiB of handle table, live bitmap, ref slab, object
// records and reset stamps, and are resident in under 8 MiB, because a
// page of a mapping is memory only once it is written. Reset must keep
// it that way: it unmaps each table and maps a fresh one, so resetting
// all eight after a 100-object cell writes nothing beyond what the cell
// did — clearing the live bitmap through its capacity would commit
// 8 MiB a heap. TestReleasedShardHoldsNoPages (internal/heap) checks
// the other half: what a large cell wrote goes back.
func TestMappedTablesAreNotResident(t *testing.T) {
	const budget = 8 << 20
	before := residentBytes(t)
	var rts []*vm.Runtime
	for i := 0; i < 8; i++ {
		rts = append(rts, vm.New(heap.New(DemographicsArena), core.New(core.DefaultConfig())))
	}
	built := residentBytes(t)
	if built-before >= budget {
		t.Errorf("eight %d MiB shards under CG raised the resident set by %d KiB, want under %d",
			DemographicsArena>>20, (built-before)>>10, budget>>10)
	}
	for _, rt := range rts {
		node := rt.Heap.DefineClass(heap.Class{Name: "Node", Refs: 1})
		f := rt.NewThread(1).Top()
		for i := 0; i < 100; i++ {
			f.MustNew(node)
		}
		rt.Reset(core.New(core.DefaultConfig()))
	}
	reset := residentBytes(t)
	if reset-built >= budget {
		t.Errorf("resetting the eight shards raised the resident set by %d KiB, want under %d",
			(reset-built)>>10, budget>>10)
	}
	t.Logf("resident: %d KiB before, +%d KiB built, %+d KiB after a cell and a Reset each",
		before>>10, (built-before)>>10, (reset-built)>>10)
	runtime.KeepAlive(rts)
}
