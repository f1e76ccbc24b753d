package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestRecordsAreSmallAndPointerFree pins CG's records to what the
// thesis's handle carries (§3.1.1, §3.5): per handle, the object record
// 12 bytes — birth depth, next and the union-find link, with no forest
// beside it (TestNoForestBesideTheRecord) and the allocating thread in
// the runtime's owner table (vm's test of this name holds it to 2
// bytes) — and the reset pass's stamp 4; per live set, the set record
// 24 — and none of them holds a Go pointer, which is what lets the
// tables live in mappings, out of every Go GC cycle's scan.
func TestRecordsAreSmallAndPointerFree(t *testing.T) {
	var c CG
	for _, r := range []struct {
		name   string
		typ    reflect.Type
		size   uintptr
		budget uintptr
	}{
		{"objMeta", reflect.TypeOf(objMeta{}), unsafe.Sizeof(objMeta{}), 12},
		{"setMeta", reflect.TypeOf(setMeta{}), unsafe.Sizeof(setMeta{}), 24},
		{"oldFrames element", reflect.TypeOf(c.oldFrames).Elem(), unsafe.Sizeof(c.oldFrames[0]), 4},
	} {
		if r.size > r.budget {
			t.Errorf("%s is %d bytes, budget is %d", r.name, r.size, r.budget)
		}
		if hasPointers(r.typ) {
			t.Errorf("%s holds a pointer", r.name)
		}
	}
}

// TestMappedRecordsHoldNoPointers is the heap package's test of the same
// name for the three tables core maps on the heap, by their element
// types as declared; and the handle-indexed two, where this build maps
// them, are mapped at the attached heap's handle bound and never move
// as they grow. Only the reset pass maps and writes
// oldFrames: a cycle of any other configuration stamps into the object
// records. vm's test of this name covers the runtime's owner table.
func TestMappedRecordsHoldNoPointers(t *testing.T) {
	for name, table := range map[string]any{"meta": CG{}.meta, "oldFrames": CG{}.oldFrames, "sets": CG{}.sets} {
		if elem := reflect.TypeOf(table).Elem(); hasPointers(elem) {
			t.Errorf("CG.%s is mapped and its element %v holds a pointer", name, elem)
		}
	}
	for _, cfg := range []Config{DefaultConfig(), {StaticOpt: true, Recycle: true}, {StaticOpt: true, ResetOnGC: true}} {
		rt, cg, node := newRT(t, cfg, 1<<22)
		mapped := cap(cg.meta) // Attach hands the mapping out empty: its capacity
		if mapped == 0 {
			t.Log("no mapping on this build: the tables grow by heap.Grow's rule")
			return
		}
		wantOld := 0
		if cfg.ResetOnGC {
			wantOld = mapped
		}
		if bound := rt.Heap.HandleBound(); cap(cg.meta) != mapped || cap(cg.oldFrames) != wantOld || mapped != bound {
			t.Fatalf("%+v: meta and oldFrames are mapped at %d and %d slots (recorded as %d), the heap's handle bound is %d",
				cfg, cap(cg.meta), cap(cg.oldFrames), mapped, bound)
		}
		meta, old := unsafe.SliceData(cg.meta), unsafe.SliceData(cg.oldFrames)
		th := rt.NewThread(1)
		f := th.Top()
		for i := 0; i < 3000; i++ {
			f.MustNew(node)
			th.CallVoid(0, func(g *vm.Frame) { g.MustNew(node) }) // recycled under Recycle
		}
		rt.ForceCollect()
		wantOld = 0
		if cfg.ResetOnGC {
			wantOld = len(cg.meta)
		}
		if len(cg.meta) < 3000 || len(cg.oldFrames) != wantOld || unsafe.SliceData(cg.meta) != meta || unsafe.SliceData(cg.oldFrames) != old {
			t.Fatalf("%+v: meta and oldFrames at %d and %d records (want oldFrames at %d), or one moved",
				cfg, len(cg.meta), len(cg.oldFrames), wantOld)
		}
	}
}

// TestSetTableIsSizedBySets: javac at size 100, the cell that sets every
// ledger workload's peak memory, has 227 686 handles and never more than
// a few hundred sets alive at once, so the set table ends under 1 % of
// the handle count — 24 bytes a set, not 24 bytes a handle. A mapped
// table spans the handle bound and holds what it hands out; a
// grown one holds its capacity.
func TestSetTableIsSizedBySets(t *testing.T) {
	spec, err := workload.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	cg := New(DefaultConfig())
	rt := vm.New(heap.New(spec.HeapBytes(100)), cg)
	mapped := cap(cg.meta) > 0 // sets is mapped where meta is
	spec.Run(rt, 100)
	records, handles := len(cg.sets), rt.Heap.NumHandles()
	if !mapped {
		records = cap(cg.sets)
	}
	t.Logf("%d set slots in use, %d records held, %d handles", len(cg.sets)-1, records, handles)
	if 100*records >= handles {
		t.Errorf("the set table holds %d records for %d handles, budget is 1 %%", records, handles)
	}
}

// hasPointers reports whether a value of type t contains anything the
// Go collector scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}
