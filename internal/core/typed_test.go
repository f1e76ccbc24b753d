package core

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// TestTypedRecycleExactClass: the Chapter 6 extension reuses a popped
// singleton of the same class in O(1), without consulting the general
// size-class index.
func TestTypedRecycleExactClass(t *testing.T) {
	h := heap.New(1 << 10)
	a := h.DefineClass(heap.Class{Name: "A", Data: 8})
	b := h.DefineClass(heap.Class{Name: "B", Data: 8})
	cg := New(Config{StaticOpt: true, TypedRecycle: true, Checked: true})
	rt := vm.New(h, checked(t, cg))
	th := rt.NewThread(0)

	var oldA, oldB heap.HandleID
	th.CallVoid(2, func(f *vm.Frame) {
		oldA = f.MustNew(a)
		oldB = f.MustNew(b)
		f.SetLocal(0, oldA)
		f.SetLocal(1, oldB)
	})
	if cg.RecycledObjects() != 2 {
		t.Fatalf("typed buckets hold %d, want 2", cg.RecycledObjects())
	}
	// A request for class B must reuse exactly the B extent, not the A
	// one, even though both fit.
	got, ok := cg.AllocFallback(b, 0)
	if !ok || got != oldB {
		t.Fatalf("typed fallback = (%d,%v), want (%d,true)", got, ok, oldB)
	}
	got, ok = cg.AllocFallback(a, 0)
	if !ok || got != oldA {
		t.Fatalf("typed fallback = (%d,%v), want (%d,true)", got, ok, oldA)
	}
	if _, ok := cg.AllocFallback(a, 0); ok {
		t.Fatal("bucket not drained")
	}
	if cg.Stats().Reused != 2 {
		t.Fatalf("Reused = %d", cg.Stats().Reused)
	}
}

// TestTypedRecycleMultiObjectSetsUseGeneralList: only singleton sets go
// to the typed buckets; larger blocks go to the size-class index.
func TestTypedRecycleMultiObjectSetsUseGeneralList(t *testing.T) {
	h := heap.New(1 << 10)
	a := h.DefineClass(heap.Class{Name: "A", Refs: 1, Data: 8})
	cg := New(Config{StaticOpt: true, TypedRecycle: true, Checked: true})
	rt := vm.New(h, checked(t, cg))
	th := rt.NewThread(0)
	th.CallVoid(2, func(f *vm.Frame) {
		x := f.MustNew(a)
		y := f.MustNew(a)
		f.PutField(x, 0, y) // block of 2
		f.SetLocal(0, x)
	})
	if cg.RecycledObjects() != 2 {
		t.Fatalf("recycled %d, want 2", cg.RecycledObjects())
	}
	// Both objects are reusable via the general path.
	if _, ok := cg.AllocFallback(a, 0); !ok {
		t.Fatal("general list did not serve the block members")
	}
}

// TestTypedRecycleFlushBalances: FlushRecycle returns typed buckets to
// the heap so accounting balances.
func TestTypedRecycleFlushBalances(t *testing.T) {
	h := heap.New(1 << 12)
	a := h.DefineClass(heap.Class{Name: "A", Data: 8})
	cg := New(Config{StaticOpt: true, TypedRecycle: true})
	rt := vm.New(h, checked(t, cg))
	th := rt.NewThread(0)
	th.CallVoid(1, func(f *vm.Frame) {
		for i := 0; i < 10; i++ {
			f.SetLocal(0, f.MustNew(a))
		}
	})
	if h.NumLive() != 10 {
		t.Fatalf("recycled objects should still be heap-live, got %d", h.NumLive())
	}
	cg.FlushRecycle()
	if h.NumLive() != 0 || h.Arena().InUse() != 0 {
		t.Fatalf("flush left live=%d inUse=%d", h.NumLive(), h.Arena().InUse())
	}
	if cg.RecycledObjects() != 0 {
		t.Fatal("buckets not cleared")
	}
}

// TestTypedRecycleEndToEnd: under allocation pressure the typed path
// satisfies same-class churn without any traditional collection.
func TestTypedRecycleEndToEnd(t *testing.T) {
	h := heap.New(1 << 10) // ~64 objects of 16 bytes
	a := h.DefineClass(heap.Class{Name: "A", Data: 8})
	cg := New(Config{StaticOpt: true, TypedRecycle: true, Checked: true})
	rt := vm.New(h, checked(t, cg))
	th := rt.NewThread(0)
	for round := 0; round < 50; round++ {
		th.CallVoid(1, func(f *vm.Frame) {
			for i := 0; i < 20; i++ {
				f.SetLocal(0, f.MustNew(a))
			}
		})
	}
	if cg.MSAStats().Cycles != 0 {
		t.Fatal("typed recycling should have avoided the traditional collector")
	}
	if cg.Stats().Reused == 0 {
		t.Fatal("nothing reused")
	}
}
