package collectors

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// traceEvents wraps a descriptor so every dispatched event is appended
// to out. Slots the descriptor leaves nil are replaced by pure
// recorders only when fill is set — with fill, the wrapped table
// subscribes everything, which is exactly the dispatch behavior of the
// old interface ABI (every collector had every method; elision opt-outs
// were the ForceAccessEvents/ForceFramePopEvents flags the AllAccess/
// AllPops fields replaced).
func traceEvents(ev vm.Events, fill bool, out *[]string) vm.Events {
	w := ev
	add := func(s string) { *out = append(*out, s) }
	if ev.Alloc != nil || fill {
		inner := ev.Alloc
		w.Alloc = func(id heap.HandleID, f *vm.Frame) {
			add(fmt.Sprintf("alloc %d f%d", id, f.ID))
			if inner != nil {
				inner(id, f)
			}
		}
	}
	if ev.Ref != nil || fill {
		inner := ev.Ref
		w.Ref = func(src, dst heap.HandleID) {
			add(fmt.Sprintf("ref %d %d", src, dst))
			if inner != nil {
				inner(src, dst)
			}
		}
	}
	if ev.StaticRef != nil || fill {
		inner := ev.StaticRef
		w.StaticRef = func(dst heap.HandleID) {
			add(fmt.Sprintf("static %d", dst))
			if inner != nil {
				inner(dst)
			}
		}
	}
	if ev.Return != nil || fill {
		inner := ev.Return
		w.Return = func(val heap.HandleID, caller *vm.Frame) {
			add(fmt.Sprintf("return %d f%d", val, caller.ID))
			if inner != nil {
				inner(val, caller)
			}
		}
	}
	if ev.FramePop != nil || fill {
		inner := ev.FramePop
		w.FramePop = func(f *vm.Frame) int {
			add(fmt.Sprintf("pop f%d", f.ID))
			if inner != nil {
				return inner(f)
			}
			return 0
		}
	}
	if ev.Access != nil || fill {
		inner := ev.Access
		w.Access = func(id heap.HandleID, t *vm.Thread) {
			tid := 0
			if t != nil {
				tid = t.ID
			}
			add(fmt.Sprintf("access %d t%d", id, tid))
			if inner != nil {
				inner(id, t)
			}
		}
	}
	return w
}

// driveElisionScript runs a fixed program covering every elision
// decision point: the single-thread access-elision phase, the
// static-frame-allocation flip, the second-thread flip, cross-thread
// touches, statics, interning, returns, pops of frames with and
// without collector-armed GCHead, Forget, and periodic forced
// collections.
func driveElisionScript(rt *vm.Runtime) {
	h := rt.Heap
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	slot := rt.StaticSlot("root")
	t1 := rt.NewThread(2)

	// Phase 1: single thread — access dispatch provably no-op.
	var shared heap.HandleID
	t1.CallVoid(2, func(f *vm.Frame) {
		a := f.MustNew(node)
		b := f.MustNew(node)
		f.SetLocal(0, a)
		f.PutField(a, 0, b)
		_ = f.GetField(a, 0)
		f.PutField(a, 0, heap.Nil)
		f.PutStatic(slot, b)
		_ = f.GetStatic(slot)
		if _, err := f.Intern("hello", node); err != nil {
			panic(err)
		}
		ret := t1.Call(1, func(g *vm.Frame) heap.HandleID { return g.MustNew(node) })
		f.Forget(ret)
		shared = b
	})

	// Phase 2: a static pseudo-frame allocation breaks the
	// single-thread proof.
	if _, err := rt.StaticFrame().New(node); err != nil {
		panic(err)
	}
	t1.CallVoid(1, func(f *vm.Frame) { f.SetLocal(0, f.MustNew(node)) })

	// Phase 3: a second thread touches the first thread's object.
	t2 := rt.NewThread(1)
	t2.CallVoid(1, func(f *vm.Frame) {
		f.SetLocal(0, shared)
		c := f.MustNew(node)
		f.PutField(c, 1, shared)
	})

	// Phase 4: forced collections interleaved with churn.
	rt.SetGCEvery(13)
	t1.CallVoid(1, func(f *vm.Frame) {
		for i := 0; i < 40; i++ {
			f.SetLocal(0, f.MustNew(node))
		}
	})
	rt.ForceCollect()
}

// TestElisionMatchesInterfaceDispatch is the ABI-equivalence property:
// for every collector spec, the events the runtime delivers
// through the spec's declared slots are exactly the events the old
// interface ABI would have delivered to the same collector — the
// subscribed-slot streams of a partially subscribed table equal the
// streams of the same collector under full subscription (which is the
// old five-method dispatch, AllAccess/AllPops standing in for the
// ForceAccessEvents/ForceFramePopEvents opt-outs). Events the new ABI
// elides are still exactly the calls the old ABI spent on no-op
// methods. Both runs here filter Access alike — the single-thread gate
// and the runtime's owner table, which drops an owner's own touches,
// touches from no thread and touches of disowned objects — and those
// are the touches CG's Access slot returns from at once, as core's
// TestAccessDispatchedOnlyOnForeignTouch pins against cg+checked, whose
// AllAccess sees every touch.
func TestElisionMatchesInterfaceDispatch(t *testing.T) {
	for _, spec := range AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			factory, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}

			// Run 1: the spec's real event table, tracing what the
			// runtime actually dispatches to its declared slots.
			declared := factory()
			var got []string
			rt := vm.New(heap.New(1<<20), traceEvents(declared, false, &got))
			driveElisionScript(rt)

			// Run 2: a fresh instance of the same collector under full
			// subscription — the old ABI's dispatch surface.
			full := factory()
			var ref []string
			rt2 := vm.New(heap.New(1<<20), traceEvents(full, true, &ref))
			driveElisionScript(rt2)

			// Keep only the reference events for slots the spec
			// declares; the remainder were no-op dispatches by
			// construction.
			want := ref[:0:0]
			for _, e := range ref {
				switch {
				case declared.Alloc == nil && len(e) > 5 && e[:5] == "alloc":
				case declared.Ref == nil && len(e) > 3 && e[:3] == "ref":
				case declared.StaticRef == nil && len(e) > 6 && e[:6] == "static":
				case declared.Return == nil && len(e) > 6 && e[:6] == "return":
				case declared.FramePop == nil && len(e) > 3 && e[:3] == "pop":
				case declared.Access == nil && len(e) > 6 && e[:6] == "access":
				default:
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("dispatch diverged: %d events via declared slots, %d via full subscription\ngot:  %v\nwant: %v",
					len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d diverged: got %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}
