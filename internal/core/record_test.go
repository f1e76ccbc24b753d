package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRecordsAreSmallAndPointerFree pins CG's handle-indexed records to
// what the thesis's handle carries (§3.1.1, §3.5): the per-object record
// 16 bytes, the per-set record 24, the reset-pass stamp 4 — and none of
// them holds a Go pointer, which is what lets detach pool the tables by
// truncation and keeps them out of every Go GC cycle's scan.
func TestRecordsAreSmallAndPointerFree(t *testing.T) {
	var c CG
	for _, r := range []struct {
		name   string
		typ    reflect.Type
		size   uintptr
		budget uintptr
	}{
		{"objMeta", reflect.TypeOf(objMeta{}), unsafe.Sizeof(objMeta{}), 16},
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
