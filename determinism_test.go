package repro

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestCellEndStateIsDeterministic runs javac at size 100 on its tight
// heap — hundreds of collection cycles, each of which releases the
// recycle lists to the arena — four times under every collector spec
// and compares the final handle → (address, size) maps. The order in
// which a collector frees objects decides which address the next
// allocation gets, so a release order drawn from a Go map (cg+typed's
// per-class buckets were one) shows here as two different heaps.
func TestCellEndStateIsDeterministic(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs 4 size-100 cells per spec, each on one goroutine: 5 s, 90 s under the race detector")
	}
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	const size, runs = 100, 4
	for _, name := range collectors.AllSpecs() {
		t.Run(name, func(t *testing.T) {
			var first uint64
			for run := 0; run < runs; run++ {
				ev, err := collectors.New(name)
				if err != nil {
					t.Fatal(err)
				}
				rt := vm.New(heap.New(spec.HeapBytes(size)), ev)
				if oom := runCell(rt, spec, size); oom != nil {
					t.Skipf("does not complete at the tight heap: %v", oom)
				}
				sum := fnv.New64a()
				live := 0
				rt.Heap.ForEachLive(func(id heap.HandleID) {
					fmt.Fprintln(sum, id, rt.Heap.AddrOf(id), rt.Heap.SizeOf(id))
					live++
				})
				if live == 0 {
					t.Fatal("the run left no live object to compare")
				}
				if got := sum.Sum64(); run == 0 {
					first = got
				} else if got != first {
					t.Fatalf("run %d ended with heap %016x, run 0 with %016x (%d live objects)", run, got, first, live)
				}
			}
		})
	}
}
