package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/vm"
)

// TestEveryWorkloadUnderEveryCollector is the cross-product integration
// suite: all eight analogs complete under every collector configuration,
// with CG's tainted-object checking armed, and the heap's accounting
// identity (allocated extents == live bytes) holds at the end.
func TestEveryWorkloadUnderEveryCollector(t *testing.T) {
	collectors := []struct {
		name string
		mk   func() vm.Collector
	}{
		{"cg", func() vm.Collector { return core.New(core.Config{StaticOpt: true, Checked: true}) }},
		{"cg-noopt", func() vm.Collector { return core.New(core.Config{Checked: true}) }},
		{"cg-recycle", func() vm.Collector {
			return core.New(core.Config{StaticOpt: true, Recycle: true, Checked: true})
		}},
		{"cg-typed", func() vm.Collector {
			return core.New(core.Config{StaticOpt: true, TypedRecycle: true, Checked: true})
		}},
		{"cg-reset", func() vm.Collector {
			return core.New(core.Config{StaticOpt: true, ResetOnGC: true, Checked: true})
		}},
		{"cg-packed", func() vm.Collector { // a spelling of cg: §3.5's word is the one layout
			return core.New(core.Config{StaticOpt: true, Checked: true})
		}},
		{"msa", func() vm.Collector { return msa.NewSystem() }},
		{"gen", func() vm.Collector { return gengc.New() }},
	}
	for _, spec := range All() {
		for _, col := range collectors {
			t.Run(spec.Name+"/"+col.name, func(t *testing.T) {
				c := col.mk()
				// Generous headroom over the calibrated budget: the
				// no-opt and gen configurations retain more.
				rt := vm.New(heap.New(4*spec.HeapBytes(1)+1<<20), c)
				spec.Run(rt, 1)
				if cg, ok := c.(*core.CG); ok {
					cg.FlushRecycle()
					b := cg.Snapshot()
					if got := b.Popped + b.Static + b.Thread + b.MSA + b.Live; got != b.Created {
						t.Fatalf("breakdown does not sum: %+v", b)
					}
				}
				// Heap identity: every live object's extent is
				// accounted, nothing more.
				bytes := 0
				rt.Heap.ForEachLive(func(id heap.HandleID) { bytes += rt.Heap.SizeOf(id) })
				if bytes != rt.Heap.Arena().InUse() {
					t.Fatalf("arena accounting: live extents %d != inUse %d",
						bytes, rt.Heap.Arena().InUse())
				}
			})
		}
	}
}

// TestForcedGCDuringEveryWorkload arms periodic full collections (the
// §4.7 instrumentation) under checked CG: any use of an object either
// collector wrongly freed panics.
func TestForcedGCDuringEveryWorkload(t *testing.T) {
	for _, spec := range All() {
		for _, reset := range []bool{false, true} {
			name := spec.Name + "/rebuild"
			if reset {
				name = spec.Name + "/reset"
			}
			t.Run(name, func(t *testing.T) {
				cg := core.New(core.Config{StaticOpt: true, ResetOnGC: reset, Checked: true})
				rt := vm.New(heap.New(64<<20), cg)
				rt.SetGCEvery(700) // aggressive: several cycles per run
				spec.Run(rt, 1)
				if rt.GCCycles() == 0 {
					t.Fatal("instrumentation did not fire")
				}
			})
		}
	}
}

// TestCGvsMSAAgreeOnSurvivors: after a full collection under the CG
// system, exactly the reachable objects survive — CG's conservatism can
// delay frees but never resurrect garbage past an MSA cycle.
func TestCGvsMSAAgreeOnSurvivors(t *testing.T) {
	for _, name := range []string{"jess", "db", "jack"} {
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cg := core.New(core.Config{StaticOpt: true, Checked: true})
			rt := vm.New(heap.New(64<<20), cg)
			spec.Run(rt, 1)
			rt.ForceCollect()
			// Oracle reachability over the final state.
			reach := make(map[heap.HandleID]bool)
			var queue []heap.HandleID
			push := func(id heap.HandleID) {
				if id != heap.Nil && !reach[id] {
					reach[id] = true
					queue = append(queue, id)
				}
			}
			rt.EachRootFrame(func(_ *vm.Frame, roots []heap.HandleID) {
				for _, r := range roots {
					push(r)
				}
			})
			for len(queue) > 0 {
				id := queue[0]
				queue = queue[1:]
				rt.Heap.Refs(id, push)
			}
			if rt.Heap.NumLive() != len(reach) {
				t.Fatalf("live %d != reachable %d after full collection",
					rt.Heap.NumLive(), len(reach))
			}
		})
	}
}
