package repro

import (
	"testing"

	"repro/internal/collectors"
)

// The alloc gate runs under collectors.AllSpecs() — the grammar
// enumeration shared with the elision equivalence gate — so a new
// family or modifier is gated automatically. The
// hot-path budget (§3.5: collector bookkeeping costs a few machine ops
// per event) implies zero Go-heap traffic per event once tables are
// warm; a new collector variant that allocates per PutField shows up
// here, not in a profile weeks later.

// TestSteadyStateEventAllocs pins PutField / GetField / Call (and the
// operand-rooting they imply) at zero allocations per op in steady
// state, under every collector spec — the events route through
// the event-table slots the collector declared, so the gate also
// proves the descriptor dispatch itself is allocation-free.
func TestSteadyStateEventAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			col, err := collectors.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHeap(1 << 20)
			cls := h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
			rt := NewRuntime(h, col)
			th := rt.NewThread(2)
			f := th.Top()
			a, b := f.MustNew(cls), f.MustNew(cls)
			f.SetLocal(0, a)
			f.SetLocal(1, b)
			callee := func(inner *Frame) { inner.SetLocal(0, a) }
			step := func() {
				f.PutField(a, 0, b)
				_ = f.GetField(a, 0)
				th.CallVoid(1, callee)
			}
			step() // warm: first contamination, frame pool, operand ring
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Fatalf("steady-state PutField/GetField/Call allocates %v objects/op under %s", n, spec)
			}
		})
	}
}

// TestSteadyStateArenaOpAllocs pins the slab arena's own operation
// surface — Alloc, Free and the O(1) Info read — at zero Go-heap
// allocations per op in steady state, for the shard arena of every
// collector spec. Once the first pass has grown the slab
// metadata and page-heap slices to their high-water capacity, churning
// small classes, a page-sized class and a multi-page large block
// touches only the arena's free masks and counters.
func TestSteadyStateArenaOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			col, err := collectors.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHeap(1 << 20)
			NewRuntime(h, col)
			a := h.Arena()
			sizes := []int{8, 16, 48, 256, 4096, 12288}
			addrs := make([]int, len(sizes))
			step := func() {
				for i, s := range sizes {
					p, err := a.Alloc(s)
					if err != nil {
						t.Fatal(err)
					}
					addrs[i] = p
				}
				if info := a.Info(); info.AllocBytes <= 0 {
					t.Fatal("Info reports no allocated bytes mid-step")
				}
				for i, s := range sizes {
					a.Free(addrs[i], s)
				}
			}
			for i := 0; i < 4; i++ { // warm slab records, partial lists, page heap
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Fatalf("steady-state Arena.Alloc/Free/Info allocates %v objects/op under %s", n, spec)
			}
		})
	}
}

// TestSteadyStateCycleAllocs pins the full collection cycle — mark,
// sweep, and the cycle-timeline recording vm.ForceCollect now wraps
// around it — at zero allocations per cycle in steady state, for every
// collector spec. The timeline is a fixed-size struct embedded in the
// runtime and its default clock is a shared
// func value, so instrumented cycles must cost no Go-heap traffic
// beyond the collector's own (warmed) work lists. A spec with no
// Collect capability still exercises the instrumentation's
// nothing-to-collect path.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			col, err := collectors.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHeap(1 << 20)
			cls := h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
			rt := NewRuntime(h, col)
			th := rt.NewThread(2)
			f := th.Top()
			// A little live graph plus churn so mark and sweep both do work.
			a, b := f.MustNew(cls), f.MustNew(cls)
			f.SetLocal(0, a)
			f.SetLocal(1, b)
			f.PutField(a, 0, b)
			churn := func(inner *Frame) { inner.SetLocal(0, inner.MustNew(cls)) }
			step := func() {
				th.CallVoid(1, churn)
				rt.ForceCollect()
			}
			for i := 0; i < 8; i++ { // warm mark bitsets, work lists, the timeline clock
				step()
			}
			if n := testing.AllocsPerRun(100, step); n != 0 {
				t.Fatalf("steady-state collection cycle allocates %v objects/op under %s", n, spec)
			}
		})
	}
}

// TestSteadyStateChurnAllocs pins the allocate-and-die loop — the §3.7
// recycling path and the slab heap's extent reuse — at zero Go
// allocations per op: a dead handle's slab extent and ID are recycled,
// so object churn in a warm runtime never touches the Go allocator.
func TestSteadyStateChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	for _, spec := range []string{"cg", "cg+recycle", "cg+typed"} {
		t.Run(spec, func(t *testing.T) {
			col, err := collectors.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHeap(1 << 20)
			cls := h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
			rt := NewRuntime(h, col)
			th := rt.NewThread(0)
			churn := func(inner *Frame) { inner.SetLocal(0, inner.MustNew(cls)) }
			for i := 0; i < 64; i++ { // warm handle table, free lists, recycle lists
				th.CallVoid(1, churn)
			}
			if n := testing.AllocsPerRun(200, func() { th.CallVoid(1, churn) }); n != 0 {
				t.Fatalf("steady-state alloc/free churn allocates %v objects/op under %s", n, spec)
			}
		})
	}
}
