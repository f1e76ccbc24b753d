// Quickstart: the paper's worked example (Figures 2.1 and 2.2) on the
// heap, runtime and collector packages (internal/heap, internal/vm,
// internal/core). Five stack frames hold objects A-E; five putfield
// instructions contaminate them; the trace shows each object's
// dependent frame after every step, ending with the §2.1 punchline that
// contamination cannot be undone.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/vm"
)

func main() {
	// The canned trace used by the experiment suite...
	fmt.Print(experiments.Example21())
	fmt.Println()

	// ...and the same machinery by hand, to show the API surface: build
	// a collector, a heap and a runtime, then run code in frames.
	h := heap.New(1 << 16)
	node := h.DefineClass(heap.Class{Name: "Object", Refs: 1, Data: 8})
	cg := core.New(core.DefaultConfig())
	rt := vm.New(h, cg)
	th := rt.NewThread(1)

	fmt.Println("By hand: an object that never escapes its frame is collected at the pop.")
	var temp heap.HandleID
	th.CallVoid(1, func(f *vm.Frame) {
		temp = f.MustNew(node)
		f.SetLocal(0, temp)
		fmt.Printf("  inside the frame:  live=%v, dependent frame ID %d\n",
			rt.Heap.Live(temp), cg.DependentFrame(temp).ID)
	})
	fmt.Printf("  after the pop:     live=%v, CG collected %d object(s)\n",
		rt.Heap.Live(temp), cg.Stats().Popped)
}
