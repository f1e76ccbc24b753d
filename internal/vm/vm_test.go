package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
)

// eventLog records every collector event in order, so tests can assert
// the runtime emits exactly the instrumentation vocabulary of §3.1.3.
type eventLog struct {
	rt     *Runtime
	events []string
	allocs []heap.HandleID
	pops   []uint64
}

// Events implements Collector: the log subscribes every reference and
// lifecycle slot. It arms the GCHead of every frame that allocates, as
// CG arms a frame its sets depend on, so those frames' pops reach it in
// order; the runtime elides the pops of frames that allocated nothing.
func (e *eventLog) Events() Events {
	return Events{
		Name:   "log",
		Attach: func(rt *Runtime) { e.rt = rt },
		Alloc: func(id heap.HandleID, f *Frame) {
			e.allocs = append(e.allocs, id)
			f.GCHead = 1
			e.add("alloc")
		},
		Ref:       func(src, dst heap.HandleID) { e.add("ref") },
		StaticRef: func(dst heap.HandleID) { e.add("static") },
		Return:    func(v heap.HandleID, caller *Frame) { e.add("return") },
		FramePop: func(f *Frame) int {
			e.pops = append(e.pops, f.ID)
			e.add("pop")
			return 0
		},
		Collector: e,
	}
}

func (e *eventLog) add(s string) { e.events = append(e.events, s) }

func newTestRT(c Collector, arena int) (*Runtime, heap.ClassID, heap.ClassID) {
	h := heap.New(arena)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	arr := h.DefineClass(heap.Class{Name: "Object[]", IsArray: true})
	return New(h, c), node, arr
}

func TestCallPushPopAndFrameOrdering(t *testing.T) {
	log := &eventLog{}
	rt, node, _ := newTestRT(log, 1<<16)
	th := rt.NewThread(2)
	root := th.Top()
	if root.Depth != 1 || root.ID == 0 {
		t.Fatalf("root frame depth/ID wrong: %+v", root)
	}
	var innerID uint64
	th.CallVoid(1, func(f *Frame) {
		innerID = f.ID
		if f.Depth != 2 {
			t.Fatalf("inner depth = %d, want 2", f.Depth)
		}
		if !(f.ID > root.ID) {
			t.Fatal("younger frame must have larger ID")
		}
		f.SetLocal(0, f.MustNew(node))
	})
	if len(log.pops) != 1 || log.pops[0] != innerID {
		t.Fatalf("expected exactly the inner frame to pop, got %v", log.pops)
	}
	if th.Depth() != 1 {
		t.Fatalf("stack depth after call = %d", th.Depth())
	}
}

func TestAReturnFiresBeforePop(t *testing.T) {
	log := &eventLog{}
	rt, node, _ := newTestRT(log, 1<<16)
	th := rt.NewThread(1)
	ret := th.Call(0, func(f *Frame) heap.HandleID { return f.MustNew(node) })
	if ret == heap.Nil {
		t.Fatal("Call lost the return value")
	}
	want := []string{"alloc", "return", "pop"}
	if len(log.events) != 3 {
		t.Fatalf("events = %v", log.events)
	}
	for i, w := range want {
		if log.events[i] != w {
			t.Fatalf("event[%d] = %s, want %s (full: %v)", i, log.events[i], w, log.events)
		}
	}
}

func TestVoidCallFiresNoReturn(t *testing.T) {
	log := &eventLog{}
	rt, node, _ := newTestRT(log, 1<<16)
	th := rt.NewThread(0)
	th.CallVoid(0, func(f *Frame) { f.MustNew(node) })
	for _, e := range log.events {
		if e == "return" {
			t.Fatal("void call fired OnReturn")
		}
	}
}

func TestPutFieldContaminationEvent(t *testing.T) {
	log := &eventLog{}
	rt, node, _ := newTestRT(log, 1<<16)
	th := rt.NewThread(2)
	f := th.Top()
	a, b := f.MustNew(node), f.MustNew(node)
	f.PutField(a, 0, b)
	if rt.Heap.GetRef(a, 0) != b {
		t.Fatal("store not performed")
	}
	found := false
	for _, e := range log.events {
		if e == "ref" {
			found = true
		}
	}
	if !found {
		t.Fatal("PutField did not fire OnRef")
	}
	// Nil stores must not fire contamination.
	n := len(log.events)
	f.PutField(a, 0, heap.Nil)
	for _, e := range log.events[n:] {
		if e == "ref" {
			t.Fatal("nil store fired OnRef")
		}
	}
}

func TestStaticsAndIntern(t *testing.T) {
	log := &eventLog{}
	rt, node, _ := newTestRT(log, 1<<16)
	th := rt.NewThread(1)
	f := th.Top()
	slot := rt.StaticSlot("table")
	if slot != rt.StaticSlot("table") {
		t.Fatal("StaticSlot not stable")
	}
	o := f.MustNew(node)
	f.PutStatic(slot, o)
	if f.GetStatic(slot) != o {
		t.Fatal("static round trip failed")
	}
	s1, err := f.Intern("hello", node)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.Intern("hello", node)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("intern not canonical")
	}
	statics := 0
	for _, e := range log.events {
		if e == "static" {
			statics++
		}
	}
	if statics != 2 { // one putstatic + one first-intern
		t.Fatalf("static events = %d, want 2", statics)
	}
}

func TestEachRootFrameOrder(t *testing.T) {
	rt, _, _ := newTestRT(&eventLog{}, 1<<16)
	th := rt.NewThread(1)
	var order []uint64
	th.CallVoid(0, func(inner *Frame) {
		last := uint64(0)
		rt.EachRootFrame(func(f *Frame, _ []heap.HandleID) {
			if len(order) == 0 || order[len(order)-1] != f.ID {
				order = append(order, f.ID)
			}
			if f.ID < last {
				t.Fatalf("frame %d visited after younger frame %d", f.ID, last)
			}
			last = f.ID
		})
	})
	if len(order) != 3 { // static, root, inner
		t.Fatalf("visited %v", order)
	}
	if order[0] != 0 {
		t.Fatal("static frame must come first")
	}
}

// oomCollector frees a designated victim when Collect is called, proving
// the alloc cascade reaches the collector. It declares only the Collect
// capability — no event slot at all.
type oomCollector struct {
	rt      *Runtime
	victims []heap.HandleID
	called  int
}

func (o *oomCollector) Events() Events {
	return Events{
		Name:      "oom",
		Attach:    func(rt *Runtime) { o.rt = rt },
		Collect:   o.collect,
		Collector: o,
	}
}

func (o *oomCollector) collect() int {
	o.called++
	n := len(o.victims)
	for _, v := range o.victims {
		o.rt.Heap.Free(v)
	}
	o.victims = nil
	return n
}

func TestAllocTriggersCollectOnExhaustion(t *testing.T) {
	col := &oomCollector{}
	h := heap.New(64) // room for exactly two 24-byte Nodes + slack
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	rt := New(h, col)
	th := rt.NewThread(0)
	f := th.Top()
	a := f.MustNew(node)
	_ = f.MustNew(node)
	col.victims = []heap.HandleID{a}
	c, err := f.New(node) // exhausted: must collect and retry
	if err != nil {
		t.Fatalf("alloc after collection failed: %v", err)
	}
	if col.called != 1 {
		t.Fatalf("Collect called %d times, want 1", col.called)
	}
	if !rt.Heap.Live(c) {
		t.Fatal("retried allocation not live")
	}
	// Now exhaust with no victims: hard OOM error, which says what was
	// refused and how full the arena was (Arena.Info at the failure).
	_, err = f.New(node)
	if err == nil {
		t.Fatal("expected hard OOM")
	}
	if !errors.Is(err, heap.ErrOutOfMemory) {
		t.Errorf("hard OOM %q does not wrap heap.ErrOutOfMemory", err)
	}
	in := h.Arena().Info()
	want := fmt.Sprintf("vm: heap exhausted after full collection: refused %d B at %d %% occupancy (alloc %d / heap %d / capacity %d): ",
		rt.Heap.SizeOf(c), 100*in.AllocBytes/in.Capacity, in.AllocBytes, in.HeapBytes, in.Capacity)
	if !strings.HasPrefix(err.Error(), want) {
		t.Errorf("hard OOM reads %q, want prefix %q", err, want)
	}
}

// TestFrameRegistry: every frame record has a slot FrameAt resolves back
// to it, a pooled record keeps its slot across activations (so a slot
// names one record for the life of a cell), and Reset leaves the static
// frame alone in slot 0.
func TestFrameRegistry(t *testing.T) {
	rt, _, _ := newTestRT(None(), 1<<16)
	if s := rt.StaticFrame(); s.Index != 0 || rt.FrameAt(0) != s {
		t.Fatalf("static frame is slot %d, FrameAt(0) = %p, want slot 0 = %p", s.Index, rt.FrameAt(0), s)
	}
	checkLive := func() {
		t.Helper()
		seen := map[int32]bool{}
		rt.EachFrame(func(f *Frame) {
			if rt.FrameAt(f.Index) != f {
				t.Errorf("FrameAt(%d) is not frame %d's record", f.Index, f.ID)
			}
			if seen[f.Index] {
				t.Errorf("slot %d names two live frames", f.Index)
			}
			seen[f.Index] = true
		})
	}
	a, b := rt.NewThread(0), rt.NewThread(0)
	var first [3]*Frame
	var nest func(th *Thread, d int, visit func(d int, f *Frame))
	nest = func(th *Thread, d int, visit func(d int, f *Frame)) {
		if d == len(first) {
			checkLive()
			return
		}
		th.CallVoid(1, func(f *Frame) {
			visit(d, f)
			nest(th, d+1, visit)
		})
	}
	nest(a, 0, func(d int, f *Frame) { first[d] = f })
	b.CallVoid(0, func(*Frame) { checkLive() })
	// The same depths again: thread a's stack hands back the same records
	// under new frame IDs, each still in the slot it was registered at.
	nest(a, 0, func(d int, f *Frame) {
		if f != first[d] || f.ID == 0 || rt.FrameAt(f.Index) != f {
			t.Errorf("depth %d: reused record %p (slot %d), first activation used %p (slot %d)",
				d, f, f.Index, first[d], first[d].Index)
		}
	})
	if n := len(rt.frames); n != 1+2+len(first)+1 {
		t.Errorf("registry holds %d records, want static + 2 roots + %d + 1 callees", n, len(first))
	}

	rt.Reset(None())
	if len(rt.frames) != 1 || rt.FrameAt(0) != rt.StaticFrame() || rt.StaticFrame().Index != 0 {
		t.Fatalf("after Reset the registry holds %d records, want the static frame alone in slot 0", len(rt.frames))
	}
	if f := rt.NewThread(0).Top(); f.Index != 1 || rt.FrameAt(1) != f {
		t.Errorf("first frame after Reset is slot %d, want 1", f.Index)
	}
}

// TestFrameRecordsReusedByDepth: a thread's stack is its frame pool. Once
// a thread has been to a depth, calls back to it — Call and CallVoid,
// mixed, at varying local counts — create no registry entry, and each
// depth is served by the one record, in the one slot, it had the first
// time, under a fresh frame ID with its locals cleared. Going one level
// deeper registers exactly one record. Reset drops the records with the
// threads.
func TestFrameRecordsReusedByDepth(t *testing.T) {
	rt, node, _ := newTestRT(None(), 1<<16)
	th := rt.NewThread(1)
	const depth = 5
	var at [depth + 2]*Frame // at[d] = the record serving depth d
	at[1] = th.Top()
	lastID := at[1].ID
	var nest func(d, max, nlocals int)
	nest = func(d, max, nlocals int) {
		body := func(f *Frame) {
			if f.Depth != d || f.ID <= lastID {
				t.Fatalf("depth %d: frame at depth %d with ID %d after ID %d", d, f.Depth, f.ID, lastID)
			}
			lastID = f.ID
			for i := 0; i < f.NumLocals(); i++ {
				if f.Local(i) != heap.Nil {
					t.Fatalf("depth %d: local %d of a reused record reads %d", d, i, f.Local(i))
				}
				f.SetLocal(i, f.MustNew(node))
			}
			if at[d] == nil {
				at[d] = f
			} else if f != at[d] || rt.FrameAt(f.Index) != f {
				t.Fatalf("depth %d: record %p in slot %d, the depth's record is %p in slot %d", d, f, f.Index, at[d], at[d].Index)
			}
			if d < max {
				nest(d+1, max, nlocals)
			}
		}
		if d%2 == 0 {
			th.CallVoid(nlocals, body)
		} else {
			th.Call(nlocals, func(f *Frame) heap.HandleID { body(f); return heap.Nil })
		}
	}
	nest(2, depth, 2) // the warm-up
	registered := len(rt.frames)
	if registered != 1+depth {
		t.Fatalf("warm-up to depth %d registered %d records, want static + %d", depth, registered, depth)
	}
	for round, nlocals := range []int{0, 1, 2, 3, 1} {
		nest(2, depth-round%3, nlocals)
		if len(rt.frames) != registered {
			t.Fatalf("round %d: calls no deeper than the warm-up registered %d records, want %d", round, len(rt.frames), registered)
		}
	}
	nest(2, depth+1, 1)
	if len(rt.frames) != registered+1 || rt.FrameAt(int32(registered)) != at[depth+1] {
		t.Fatalf("one level deeper: %d records, want %d, the new one in slot %d", len(rt.frames), registered+1, registered)
	}

	rt.Reset(None())
	if len(rt.frames) != 1 {
		t.Fatalf("after Reset the registry holds %d records, want the static frame alone", len(rt.frames))
	}
	rt.NewThread(0).CallVoid(0, func(g *Frame) {
		for _, old := range at {
			if g == old {
				t.Fatalf("after Reset depth 2 reuses record %p from before", g)
			}
		}
	})
	if len(rt.frames) != 3 {
		t.Fatalf("after Reset a root and one call registered %d records, want static + 2", len(rt.frames))
	}
}

// recycler satisfies allocations from a stashed dead object, proving the
// fallback path precedes Collect (§3.7: "before it tries to run MSA").
// It declares the AllocFallback capability alongside Collect.
type recycler struct {
	rt        *Runtime
	stash     heap.HandleID
	collected int
}

func (r *recycler) Events() Events {
	return Events{
		Name:          "recycler",
		Attach:        func(rt *Runtime) { r.rt = rt },
		Collect:       func() int { r.collected++; return 0 },
		AllocFallback: r.allocFallback,
		Collector:     r,
	}
}

func (r *recycler) allocFallback(c heap.ClassID, extra int) (heap.HandleID, bool) {
	if r.stash == heap.Nil {
		return heap.Nil, false
	}
	id := r.stash
	r.stash = heap.Nil
	if err := r.rt.Heap.Reinit(id, c, extra); err != nil {
		return heap.Nil, false
	}
	return id, true
}

func TestAllocFallbackPrecedesCollect(t *testing.T) {
	rec := &recycler{}
	h := heap.New(48)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8}) // 24 bytes
	rt := New(h, rec)
	th := rt.NewThread(0)
	f := th.Top()
	a := f.MustNew(node)
	_ = f.MustNew(node)
	rec.stash = a // CG-dead, heap-live
	got, err := f.New(node)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("expected recycled handle %d, got %d", a, got)
	}
	if rec.collected != 0 {
		t.Fatal("Collect ran although recycling satisfied the allocation")
	}
}

func TestGCEveryForcesCollections(t *testing.T) {
	col := &oomCollector{}
	rt, node, _ := newTestRT(col, 1<<16)
	rt.SetGCEvery(10)
	th := rt.NewThread(1)
	f := th.Top()
	for i := 0; i < 95; i++ {
		f.SetLocal(0, f.MustNew(node))
	}
	if rt.GCCycles() < 9 {
		t.Fatalf("GCCycles = %d after ~190 ops with GCEvery=10", rt.GCCycles())
	}
	if col.called != rt.GCCycles() {
		t.Fatalf("collector saw %d cycles, runtime counted %d", col.called, rt.GCCycles())
	}
}

func TestThreadsAreIndependentStacks(t *testing.T) {
	rt, node, _ := newTestRT(&eventLog{}, 1<<16)
	t1 := rt.NewThread(1)
	t2 := rt.NewThread(1)
	if t1.ID == t2.ID {
		t.Fatal("thread IDs collide")
	}
	t1.CallVoid(1, func(f *Frame) {
		f.SetLocal(0, f.MustNew(node))
		if t2.Depth() != 1 {
			t.Fatal("pushing on t1 affected t2")
		}
	})
	if len(rt.Threads()) != 2 {
		t.Fatal("thread registry wrong")
	}
}

func TestArraysViaFrame(t *testing.T) {
	rt, node, arr := newTestRT(&eventLog{}, 1<<16)
	th := rt.NewThread(0)
	f := th.Top()
	v := f.MustNewArray(arr, 4)
	e := f.MustNew(node)
	f.PutField(v, 2, e) // aastore is putfield on the array object
	if f.GetField(v, 2) != e {
		t.Fatal("array element store/load failed")
	}
	_ = rt
}

func TestInstrCounting(t *testing.T) {
	rt, node, _ := newTestRT(&eventLog{}, 1<<16)
	th := rt.NewThread(1)
	f := th.Top()
	before := rt.Instr()
	f.SetLocal(0, f.MustNew(node))
	if rt.Instr() != before+2 { // one alloc op + one setlocal op
		t.Fatalf("instr delta = %d, want 2", rt.Instr()-before)
	}
}
