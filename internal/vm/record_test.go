package vm

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/heap"
)

// TestRecordsAreSmallAndPointerFree is the heap and core packages' test
// of the same name for the runtime's one per-handle table: the owner
// table spends at most two bytes a handle (it spends one) on the
// allocating thread, and holds no Go pointer.
func TestRecordsAreSmallAndPointerFree(t *testing.T) {
	elem := reflect.TypeOf(Runtime{}.owners).Elem()
	if elem.Size() > 2 {
		t.Errorf("an owner entry is %d bytes, budget is 2", elem.Size())
	}
	switch elem.Kind() {
	case reflect.Int8, reflect.Int16, reflect.Uint8, reflect.Uint16:
	default:
		t.Errorf("an owner entry is a %v, want a small integer", elem)
	}
}

// TestMappedRecordsHoldNoPointers: where this build maps, the owner
// table is reserved at the heap's handle bound when an Access slot is
// first bound, at full length, and never moves as handles are handed
// out; without an Access slot nothing is reserved.
func TestMappedRecordsHoldNoPointers(t *testing.T) {
	rt, node, _ := newTestRT(None(), 1<<22)
	if rt.owners != nil {
		t.Fatalf("a runtime with no Access slot holds an owner table of %d entries", len(rt.owners))
	}
	rt.Attach((&accessLog{}).Events())
	if rt.ownersMapped == nil {
		t.Log("no mapping on this build: the owner table grows with the handle table")
		return
	}
	if bound := rt.Heap.HandleBound(); len(rt.owners) != bound || cap(rt.ownersMapped) != bound {
		t.Fatalf("owner table of %d entries over a mapping of %d, the heap's handle bound is %d",
			len(rt.owners), cap(rt.ownersMapped), bound)
	}
	base := unsafe.SliceData(rt.owners)
	f := rt.NewThread(1).Top()
	var last heap.HandleID
	for i := 0; i < 3000; i++ {
		last = f.MustNew(node)
	}
	if unsafe.SliceData(rt.owners) != base || rt.owners[last] != 1 {
		t.Fatalf("the owner table moved, or handle %d's entry reads %d, want thread 1", last, rt.owners[last])
	}
	rt.Release()
	if rt.owners != nil || rt.ownersMapped != nil {
		t.Fatal("Release kept the owner table")
	}
}
