package heap

import (
	"runtime"
	"sync/atomic"
)

// Table is the memory behind one table indexed by handle id (or by ref
// slab offset), whoever owns it, for the one cell its owner serves: the
// owner reserves it when the cell starts, indexes and grows the plain
// slice Reserve hands out (with Grow or append), and unmaps it with
// Release when the cell ends. The next cell reserves a fresh one, so a
// table is born zero and nothing a cell wrote outlives it.
//
// Reserve maps the table at a bound its owner knows no index reaches:
// a private, zero-filled, MAP_NORESERVE anonymous mapping, which costs
// address space until a page is first written. Within the mapping the
// table never moves and past its length it is zero, so Grow re-slices
// it. Where there is no mapping — the builds mapped_other.go serves, a
// host that refuses one, or an index past the bound (the ref slab's
// free extents of lengths no one allocates) — the table is a Go slice
// and grows by Grow's rule. The mapping is unmapped once the Table is
// unreachable, or at once by Release. T must hold no Go pointer: the Go
// collector does not scan a mapping.
//
// A Table must not be copied: its cleanup is registered on the Table
// where Reserve ran, so a copy would read a mapping that is unmapped
// once the original is unreachable. go vet's copylocks check refuses a
// copy (noCopy), of a Table or of a struct holding one.
type Table[T any] struct {
	_     noCopy
	m     []T             // the mapping, at its full capacity; nil where there is none
	unmap runtime.Cleanup // unmaps m once the Table is unreachable
}

// noCopy makes go vet's copylocks check refuse a copy of the struct
// that holds it. It has no state; Lock and Unlock do nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// mapOff makes Reserve map nothing, as on the builds that cannot. Only
// tests set it: TestMappedAndGrownTablesAgree runs both sides.
var mapOff bool

// mappings counts the mappings Reserve has made and not yet unmapped:
// what TestDroppedOwnersAreUnmapped reads.
var mappings atomic.Int64

// Reserve maps the table at n elements and returns it empty, or nil
// where there is no mapping to be had: mapping switched off, a build
// or host without one, an n*sizeof(T) no int holds. A table is
// reserved at most once between Releases.
func (t *Table[T]) Reserve(n int) []T {
	if t.m != nil {
		panic("heap: table reserved twice")
	}
	if mapOff {
		return nil
	}
	if t.m = mapTable[T](n); t.m == nil {
		return nil
	}
	t.unmap = runtime.AddCleanup(t, unmapTable[T], t.m)
	return t.m[:0]
}

// Reserved reports how many elements the table's mapping holds, 0
// where there is none.
func (t *Table[T]) Reserved() int { return cap(t.m) }

// Release unmaps the table now, for an owner whose cell has ended,
// rather than once it is unreachable. The owner's slice must not be
// used afterwards; the table may be reserved again.
func (t *Table[T]) Release() {
	if t.m == nil {
		return
	}
	t.unmap.Stop()
	unmapTable(t.m)
	t.m, t.unmap = nil, runtime.Cleanup{}
}
