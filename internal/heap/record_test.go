package heap

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

// TestHandleRecordIsSmallAndPointerFree pins the handle record: at most
// 16 bytes — no live flag beside cls, no free-id list beside addr, no
// size the arena knows, no extent capacity beside its length — and no
// field the Go collector would have to scan: the handle table is the
// largest table a cell owns.
func TestHandleRecordIsSmallAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(handle{}); n > 16 {
		t.Errorf("handle is %d bytes, budget is 16", n)
	}
	if hasPointers(reflect.TypeOf(handle{})) {
		t.Error("handle holds a pointer")
	}
}

// TestMappedRecordsHoldNoPointers: the Go collector does not scan a
// mapping, so a table a Table maps must hold nothing it would have
// to find there. The heap's records and the arena's are checked by their
// element types as declared; core checks its own.
func TestMappedRecordsHoldNoPointers(t *testing.T) {
	var h Heap
	var a Arena
	for name, table := range map[string]any{"Heap.handles": h.handles, "Heap.liveBits": h.liveBits, "Arena.slabs": a.slabs} {
		if elem := reflect.TypeOf(table).Elem(); hasPointers(elem) {
			t.Errorf("%s is mapped and its element %v holds a pointer", name, elem)
		}
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

// TestArenaAboveMaxPanics: past MaxArenaBytes an extent end no longer
// fits the handle's int32 addr/size, so such an arena is never built.
func TestArenaAboveMaxPanics(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("no int exceeds MaxArenaBytes on a 32-bit host")
	}
	over := MaxArenaBytes
	over++
	defer func() {
		if recover() == nil {
			t.Fatal("NewArena above MaxArenaBytes must panic")
		}
	}()
	NewArena(over)
}
