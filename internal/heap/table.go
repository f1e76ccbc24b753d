package heap

import (
	"runtime"
	"sync/atomic"
)

// tables is the memory behind the tables one owner maps for the one cell
// it serves: a Heap's (its own three, and what MapTable maps on it for
// the runtime and the collector over it), or an Arena's page records and
// list heads — the arena keeps its own because Compact replaces it in
// the middle of a cell. release unmaps them all when the cell ends, and
// the next cell maps fresh ones, so a table is born zero and nothing a
// cell wrote outlives it.
//
// A table is a private, zero-filled, MAP_NORESERVE anonymous mapping at
// a bound no index reaches, which costs address space until a page is
// first written. Within the mapping the table never moves and past its
// length it is zero, so Grow re-slices it. Where there is no mapping —
// the builds mapped_other.go serves, a host that refuses one, or an
// index past the bound (the ref slab's free extents of lengths no one
// allocates) — the table is a Go slice and grows by Grow's rule. The
// mappings are unmapped by one cleanup once the registry is unreachable,
// or at once by release. A table's element must hold no Go pointer: the
// Go collector does not scan a mapping.
//
// A registry must not be copied: its cleanup is registered where the
// first table was mapped, so a copy would read mappings that are
// unmapped once the original is unreachable. go vet's copylocks check
// refuses a copy (noCopy), of the registry or of a struct holding one.
type tables struct {
	_     noCopy
	maps  *[][]byte       // every mapping made since the last release; nil when none
	unmap runtime.Cleanup // unmaps *maps once the registry is unreachable
}

// noCopy makes go vet's copylocks check refuse a copy of the struct
// that holds it. It has no state; Lock and Unlock do nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// mapOff makes mapOn map nothing, as on the builds that cannot. Only
// tests set it: TestMappedAndGrownTablesAgree runs both sides.
var mapOff bool

// mappings counts the mappings made and not yet unmapped: what
// TestDroppedOwnersAreUnmapped reads.
var mappings atomic.Int64

// MapTable maps a table of n elements on h for its cell and returns it
// empty, or nil where there is no mapping to be had: mapping switched
// off, a build or host without one, an n*sizeof(T) no int holds. h
// unmaps it with its own tables (Release, or once h is unreachable).
// T must hold no Go pointer.
func MapTable[T any](h *Heap, n int) []T { return mapOn[T](&h.tabs, n) }

// mapOn maps a table of n elements on r.
func mapOn[T any](r *tables, n int) []T {
	if mapOff {
		return nil
	}
	t, b := mapTable[T](n)
	if t == nil {
		return nil
	}
	if r.maps == nil {
		r.maps = new([][]byte)
		r.unmap = runtime.AddCleanup(r, unmapAll, r.maps)
	}
	*r.maps = append(*r.maps, b)
	return t[:0]
}

// release unmaps every table mapped on r now, rather than once r is
// unreachable; the tables must not be used afterwards. A second release
// unmaps nothing.
func (r *tables) release() {
	if r.maps == nil {
		return
	}
	r.unmap.Stop()
	unmapAll(r.maps)
	r.maps, r.unmap = nil, runtime.Cleanup{}
}

func unmapAll(maps *[][]byte) {
	for _, b := range *maps {
		unmapBytes(b)
	}
}
