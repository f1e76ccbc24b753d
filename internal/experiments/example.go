package experiments

import (
	"fmt"
	"strings"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/vm"
)

// exampleCG resolves a contaminated collector from its spec; the
// worked examples inspect CG-specific observables (DependentFrame), so
// they assert the concrete type.
func exampleCG(spec string) *core.CG {
	ev, err := collectors.New(spec)
	if err != nil {
		panic(err)
	}
	return ev.Collector.(*core.CG)
}

// Example21 replays the worked example of Figures 2.1 and 2.2: five
// stack frames, objects A-E, and the five instructions that rearrange
// their dependent frames. It returns a trace of each object's dependent
// frame after every step — the exact narrative of §2.1.
func Example21() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 2.1/2.2: the worked example (dependent frame per object after each step)")

	h := heap.New(1 << 16)
	node := h.DefineClass(heap.Class{Name: "Object", Refs: 2, Data: 8})
	cg := exampleCG("cg+noopt") // the unoptimized semantics of §2.1
	rt := vm.New(h, cg)
	th := rt.NewThread(1)
	slot := rt.StaticSlot("E")

	names := map[heap.HandleID]string{}
	frameNo := map[uint64]int{0: 0}
	report := func(step string, objs []heap.HandleID) {
		fmt.Fprintf(&b, "  %-12s", step)
		for _, o := range objs {
			fmt.Fprintf(&b, "  %s->frame %d", names[o], frameNo[cg.DependentFrame(o).ID])
		}
		fmt.Fprintln(&b)
	}

	f1 := th.Top()
	frameNo[f1.ID] = 1
	c := f1.MustNew(node)
	names[c] = "C"
	f1.SetLocal(0, c)
	th.CallVoid(1, func(f2 *vm.Frame) {
		frameNo[f2.ID] = 2
		bb := f2.MustNew(node)
		names[bb] = "B"
		f2.SetLocal(0, bb)
		th.CallVoid(1, func(f3 *vm.Frame) {
			frameNo[f3.ID] = 3
			a := f3.MustNew(node)
			names[a] = "A"
			f3.SetLocal(0, a)
			th.CallVoid(1, func(f4 *vm.Frame) {
				frameNo[f4.ID] = 4
				d := f4.MustNew(node)
				names[d] = "D"
				f4.SetLocal(0, d)
				th.CallVoid(0, func(f5 *vm.Frame) {
					frameNo[f5.ID] = 5
					e := f5.MustNew(node)
					names[e] = "E"
					f5.PutStatic(slot, e)
					all := []heap.HandleID{a, bb, c, d, e}
					report("initial", all)
					f5.PutField(bb, 0, a)
					report("(1) B.f=A", all)
					f5.PutField(c, 0, bb)
					report("(2) C.f=B", all)
					f5.PutField(d, 0, c)
					report("(3) D.f=C", all)
					f5.PutField(e, 0, d)
					report("(4) E.f=D", all)
					f5.PutField(e, 0, heap.Nil)
					report("(5) E.f=null", all)
					fmt.Fprintln(&b, "  contamination cannot be undone: A-D remain dependent on frame 0")
				})
			})
		})
	})
	return b.String()
}

// Example31 replays Figure 3.1: an object allocated by one thread and
// touched by a second becomes dependent on frame 0 (static) for the rest
// of the program.
func Example31() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 3.1: two threads sharing an object")

	h := heap.New(1 << 16)
	node := h.DefineClass(heap.Class{Name: "Object", Refs: 1, Data: 8})
	cg := exampleCG("cg")
	rt := vm.New(h, cg)
	t1 := rt.NewThread(1)
	t2 := rt.NewThread(1)

	a := t1.Top().MustNew(node)
	t1.Top().SetLocal(0, a)
	fmt.Fprintf(&b, "  thread 1 allocates A: dependent frame ID %d (thread 1's root)\n",
		cg.DependentFrame(a).ID)
	t2.Top().SetLocal(0, a)
	fmt.Fprintf(&b, "  thread 2 touches A:   dependent frame ID %d (frame 0 - static forever)\n",
		cg.DependentFrame(a).ID)
	fmt.Fprintf(&b, "  objects demoted for sharing: %d\n", cg.Stats().Shared)
	return b.String()
}
