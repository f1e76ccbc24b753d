package vm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/heap"
)

// accessLog records Access dispatches, to pin down exactly when the
// runtime elides them. allAccess mirrors the descriptor's AllAccess
// capability (the declarative form of the old ForceAccessEvents);
// disown makes the slot disown each object it is shown, as CG's
// thread-share demotion does.
type accessLog struct {
	accesses  int
	allAccess bool
	disown    bool
	touched   []string // "id tThreadID" per dispatch
	rt        *Runtime
}

func (a *accessLog) Events() Events {
	return Events{
		Name:   "accesslog",
		Attach: func(rt *Runtime) { a.rt = rt },
		Access: func(id heap.HandleID, t *Thread) {
			a.accesses++
			a.touched = append(a.touched, fmt.Sprintf("%d t%d", id, t.ID))
			if a.disown {
				a.rt.Disown(id)
			}
		},
		AllAccess: a.allAccess,
		Collector: a,
	}
}

func TestOperandRingDedupBoundsGrowth(t *testing.T) {
	rt, node, _ := newTestRT(None(), 1<<20)
	th := rt.NewThread(1)
	th.CallVoid(1, func(f *Frame) {
		obj := f.MustNew(node)
		val := f.MustNew(node)
		f.PutField(obj, 0, val)
		before := len(f.operands)
		// A hot loop re-reading one field roots its result once, not
		// once per read.
		for i := 0; i < 1000; i++ {
			if got := f.GetField(obj, 0); got != val {
				t.Fatalf("GetField = %d, want %d", got, val)
			}
		}
		if grew := len(f.operands) - before; grew > 1 {
			t.Fatalf("operands grew by %d over a same-handle loop, want <= 1", grew)
		}
	})
}

func TestForgetPurgesRingAndCompacts(t *testing.T) {
	rt, node, _ := newTestRT(None(), 1<<20)
	th := rt.NewThread(1)
	th.CallVoid(1, func(f *Frame) {
		ids := make([]heap.HandleID, 8)
		for i := range ids {
			ids[i] = f.MustNew(node)
		}
		// Forget must purge the ring: a forgotten handle re-rooted
		// immediately afterwards has to reappear on the operand list,
		// or the driver would hold an unrooted reference.
		f.Forget(ids[7])
		f.addOperand(ids[7])
		found := 0
		for _, o := range f.operands {
			if o == ids[7] {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("re-rooted handle appears %d times, want 1", found)
		}
		// Forgetting most of the list triggers the one-shot compaction:
		// no Nil padding survives once half the entries are dead.
		for _, id := range ids[:7] {
			f.Forget(id)
		}
		for _, o := range f.operands {
			if o == heap.Nil {
				t.Fatalf("operands %v still hold Nil after compaction threshold", f.operands)
			}
		}
		if f.opNils != 0 {
			t.Fatalf("opNils = %d after compaction, want 0", f.opNils)
		}
	})
}

// TestForgetManyOperandsLinearish exercises the drop-everything
// pattern: forgetting every operand of a large frame. Each Forget
// still reads the whole list (it must drop *every* occurrence), but
// the old per-call slice rewrite — n²/2 *writes* plus repeated
// reallocation traffic — is replaced by in-place nil-outs with a
// one-shot compaction. The assertion is semantic: everything is gone
// at the end, and re-rooting afterwards still works.
func TestForgetManyOperandsLinearish(t *testing.T) {
	rt, node, _ := newTestRT(None(), 64<<20)
	th := rt.NewThread(1)
	th.CallVoid(1, func(f *Frame) {
		const n = 20000
		ids := make([]heap.HandleID, n)
		for i := range ids {
			ids[i] = f.MustNew(node)
		}
		for _, id := range ids {
			f.Forget(id)
		}
		if len(f.operands) != 0 {
			t.Fatalf("%d operands survive forgetting everything", len(f.operands))
		}
	})
}

// TestAccessDispatchElidedUntilSecondThread pins the Access rule. One
// thread dispatches nothing. With two, an owner's own touches are still
// never dispatched — through every touching op, and whoever else touched
// the object before — while each foreign touch is, until the slot
// disowns the object. An object the static pseudo-frame allocated is
// foreign to every thread: its first touch by any thread is dispatched,
// and none after the slot has disowned it.
func TestAccessDispatchElidedUntilSecondThread(t *testing.T) {
	log := &accessLog{}
	rt, node, _ := newTestRT(log, 1<<20)
	slot := rt.StaticSlot("s")
	// touchAll touches obj through every op that can dispatch Access.
	touchAll := func(f *Frame, obj heap.HandleID) {
		f.SetLocal(0, obj)
		f.PutField(obj, 1, heap.Nil)
		f.GetField(obj, 1)
		f.PutStatic(slot, obj)
		f.GetStatic(slot)
	}
	t1 := rt.NewThread(1)
	var a, b heap.HandleID
	t1.CallVoid(1, func(f *Frame) {
		a, b = f.MustNew(node), f.MustNew(node)
		f.PutField(a, 0, b)
		touchAll(f, a)
		touchAll(f, b)
	})
	if log.accesses != 0 {
		t.Fatalf("single-threaded runtime dispatched %d Access events, want 0", log.accesses)
	}
	t2 := rt.NewThread(1) // second thread: the gate opens
	t1.CallVoid(1, func(f *Frame) {
		touchAll(f, a)
		touchAll(f, f.MustNew(node))
	})
	if log.accesses != 0 {
		t.Fatalf("thread 1's touches of its own objects dispatched %v", log.touched)
	}
	t2.CallVoid(1, func(f *Frame) {
		f.SetLocal(0, a) // foreign: dispatched
		f.GetField(a, 0) // a again, then b, both foreign
		touchAll(f, f.MustNew(node))
	})
	t1.CallVoid(1, func(f *Frame) { touchAll(f, a) }) // the owner, after t2
	want := []string{fmt.Sprintf("%d t2", a), fmt.Sprintf("%d t2", a), fmt.Sprintf("%d t2", b)}
	if !slices.Equal(log.touched, want) {
		t.Fatalf("dispatched %v, want %v", log.touched, want)
	}

	log.touched, log.disown = nil, true
	s, err := rt.StaticFrame().New(node)
	if err != nil {
		t.Fatal(err)
	}
	t1.CallVoid(1, func(f *Frame) { touchAll(f, s) }) // dispatched once, then disowned
	t2.CallVoid(1, func(f *Frame) { touchAll(f, s) })
	t1.CallVoid(1, func(f *Frame) { touchAll(f, s) })
	if want := []string{fmt.Sprintf("%d t1", s)}; !slices.Equal(log.touched, want) {
		t.Fatalf("a static-frame object's touches dispatched %v, want %v", log.touched, want)
	}
	if !rt.Disowned(s) || rt.Disowned(a) {
		t.Fatalf("Disowned(static object) = %v, Disowned(a) = %v; want true, false", rt.Disowned(s), rt.Disowned(a))
	}
}

// TestAllAccessSeesEveryTouchOfADisownedObject: AllAccess lifts the
// owner filter as well as the single-thread gate.
func TestAllAccessSeesEveryTouchOfADisownedObject(t *testing.T) {
	log := &accessLog{allAccess: true, disown: true}
	rt, node, _ := newTestRT(log, 1<<20)
	th := rt.NewThread(1)
	th.CallVoid(1, func(f *Frame) {
		obj := f.MustNew(node) // the allocating touch, which disowns it
		f.SetLocal(0, obj)
		f.SetLocal(0, obj)
		f.GetField(obj, 0) // slot 0 is Nil: one touch
	})
	if log.accesses != 4 {
		t.Fatalf("AllAccess dispatched %d events, want 4: %v", log.accesses, log.touched)
	}
}

// TestThreadCap: the owner table spends a signed byte on a thread ID.
func TestThreadCap(t *testing.T) {
	rt, _, _ := newTestRT(None(), 1<<16)
	for i := 0; i < MaxThreads; i++ {
		rt.NewThread(0)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "thread 128") {
			t.Fatalf("thread 128: recovered %v, want a panic naming it", r)
		}
	}()
	rt.NewThread(0)
}

func TestAccessDispatchForcedByStaticFrameAlloc(t *testing.T) {
	log := &accessLog{}
	rt, node, _ := newTestRT(log, 1<<20)
	t1 := rt.NewThread(1)
	// An allocation owned by the static pseudo-frame has no owning
	// thread, so the single-thread proof breaks: dispatch must resume
	// before the thread can touch the object unobserved.
	obj, err := rt.StaticFrame().New(node)
	if err != nil {
		t.Fatal(err)
	}
	t1.CallVoid(1, func(f *Frame) { f.SetLocal(0, obj) })
	if log.accesses == 0 {
		t.Fatal("static-frame allocation did not re-enable OnAccess dispatch")
	}
}

func TestAllAccessDefeatsElision(t *testing.T) {
	log := &accessLog{allAccess: true}
	rt, node, _ := newTestRT(log, 1<<20)
	th := rt.NewThread(1)
	th.CallVoid(1, func(f *Frame) { f.SetLocal(0, f.MustNew(node)) })
	if log.accesses == 0 {
		t.Fatal("the AllAccess capability did not defeat single-thread elision")
	}
}

// TestRuntimeResetObservablyFresh pins the reset-shard contract at the
// runtime level: after Reset — which unmaps the heap's and the
// runtime's tables, maps the heap fresh ones and attaches the new
// collector — the same Runtime replays a program with identical frame
// IDs, handle IDs, instruction counts and statistics.
func TestRuntimeResetObservablyFresh(t *testing.T) {
	program := func(rt *Runtime, node heap.ClassID, n int) (ids []heap.HandleID, frames []uint64) {
		th := rt.NewThread(1)
		th.CallVoid(2, func(f *Frame) {
			frames = append(frames, f.ID)
			a := f.MustNew(node)
			b := f.MustNew(node)
			ids = append(ids, a, b)
			f.PutField(a, 0, b)
			f.SetLocal(0, a)
			s := rt.StaticSlot("root")
			f.PutStatic(s, a)
			i, err := f.Intern("hello", node)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, i)
			th.CallVoid(1, func(g *Frame) {
				frames = append(frames, g.ID)
				for k := 0; k < n; k++ {
					o := g.MustNew(node)
					g.PutField(o, 1, a)
					g.SetLocal(0, o) // keep it rooted: the next one needs a fresh handle
					ids = append(ids, o)
				}
			})
		})
		return ids, frames
	}

	reused, node2, _ := newTestRT(None(), 1<<20)
	program(reused, node2, 1)
	// The first cell fits the tables the dirty run left behind; the
	// second grows them past the first cell's capacity, so retained capacity
	// and reallocated tables are both checked against a fresh runtime.
	for _, n := range []int{1, 300} {
		fresh, node, _ := newTestRT(None(), 1<<20)
		wantIDs, wantFrames := program(fresh, node, n)
		wantInstr := fresh.Instr()

		reused.Reset(None())
		if reused.Instr() != 0 || len(reused.Threads()) != 0 || reused.GCCycles() != 0 {
			t.Fatal("Reset left runtime state behind")
		}
		node3 := reused.Heap.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
		gotIDs, gotFrames := program(reused, node3, n)
		if reused.Instr() != wantInstr {
			t.Fatalf("n=%d: Instr after Reset = %d, fresh = %d", n, reused.Instr(), wantInstr)
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("n=%d handle %d: %d after Reset, %d fresh", n, i, gotIDs[i], wantIDs[i])
			}
			for slot := 0; slot < 2; slot++ {
				if got, want := reused.Heap.GetRef(gotIDs[i], slot), fresh.Heap.GetRef(wantIDs[i], slot); got != want {
					t.Fatalf("n=%d handle %d slot %d: %d after Reset, %d fresh", n, i, slot, got, want)
				}
			}
		}
		for i := range wantFrames {
			if gotFrames[i] != wantFrames[i] {
				t.Fatalf("n=%d frame %d: ID %d after Reset, %d fresh", n, i, gotFrames[i], wantFrames[i])
			}
		}
		if reused.Heap.HandleCap() != fresh.Heap.HandleCap() {
			t.Fatalf("n=%d: HandleCap %d after Reset, %d fresh", n, reused.Heap.HandleCap(), fresh.Heap.HandleCap())
		}
	}
}
