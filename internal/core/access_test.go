package core

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// accessRun drives javac at size 10 under cfg, with a forced collection
// every gcEvery operations (0 = only on exhaustion), then has each of
// its two threads read, twice, an object the static pseudo-frame
// allocated — the one kind of object no analog allocates, and foreign
// to every thread. It returns CG's counters and classification, how
// many times the runtime dispatched the Access slot and how many
// collections ran.
func accessRun(t *testing.T, cfg Config, gcEvery uint64) (Stats, Breakdown, int, int) {
	t.Helper()
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	cg := New(cfg)
	ev := checked(t, cg)
	dispatched := 0
	ev.Access = func(id heap.HandleID, th *vm.Thread) {
		dispatched++
		cg.OnAccess(id, th)
	}
	ev.GCEvery = gcEvery
	rt := vm.New(heap.New(spec.HeapBytes(10)), ev)
	spec.Run(rt, 10)
	node := rt.Heap.DefineClass(heap.Class{Name: "Node", Refs: 1})
	s, err := rt.StaticFrame().New(node)
	if err != nil {
		t.Fatal(err)
	}
	slot := rt.StaticSlot("shared")
	rt.StaticFrame().PutStatic(slot, s)
	for _, th := range rt.Threads() {
		th.CallVoid(0, func(f *vm.Frame) {
			f.GetStatic(slot)
			f.GetStatic(slot)
		})
	}
	return cg.Stats(), cg.Snapshot(), dispatched, rt.GCCycles()
}

// TestAccessDispatchedOnlyOnForeignTouch pins the Access rule on the
// analog that shares objects between threads. Under cg the runtime
// dispatches exactly the touches CG's thread-share detection acts on —
// each first touch, by a thread that did not allocate it, of an object
// nobody has disowned — so every dispatch demotes at least one object,
// and the static-frame object is dispatched once, by the first thread
// to read it. Under cg+checked the slot sees every touch and CG filters
// them by the same owner table; the two runs' Stats and Breakdown are
// equal, with collections forced or not. The count is exact: a filter
// that dispatched more would be a cost, one that dispatched less (one
// that skipped the static frame's objects, say) a wrong Fig 4.2.
func TestAccessDispatchedOnlyOnForeignTouch(t *testing.T) {
	for _, gcEvery := range []uint64{0, 2000} {
		st, bd, n, cycles := accessRun(t, DefaultConfig(), gcEvery)
		cst, cbd, cn, _ := accessRun(t, checkedCfg(), gcEvery)
		t.Logf("gc every %d: %d cycles, %d dispatches under cg, %d under cg+checked; %d objects shared",
			gcEvery, cycles, n, cn, st.Shared)
		if gcEvery != 0 && cycles == 0 {
			t.Errorf("gc every %d: no collection ran", gcEvery)
		}
		if st != cst || bd != cbd {
			t.Errorf("gc every %d: cg and cg+checked disagree:\ncg:         %+v %+v\ncg+checked: %+v %+v", gcEvery, st, bd, cst, cbd)
		}
		if want := 23; n != want {
			t.Errorf("gc every %d: cg dispatched Access %d times, want %d", gcEvery, n, want)
		}
		if want := uint64(3525 + 1); st.Shared != want { // javac's, and the static object
			t.Errorf("gc every %d: %d objects shared, want %d", gcEvery, st.Shared, want)
		}
		if n > int(st.Shared) || cn <= n {
			t.Errorf("gc every %d: %d dispatches for %d objects shared, %d under cg+checked", gcEvery, n, st.Shared, cn)
		}
	}
}
