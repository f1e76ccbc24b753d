//go:build unix && !aix && !race

package heap

import (
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Table is the memory behind one table indexed by handle id (or by ref
// slab offset), whoever owns it. The owner indexes a plain slice the
// Table hands out, grows it with Cover (or with Grow or append, in the
// same memory), and when its cell ends hands it back with Decommit, if
// it outlives the cell, or unmaps it with Release.
//
// Reserve maps the table at a bound its owner knows no index reaches:
// a private, zero-filled, MAP_NORESERVE anonymous mapping, which costs
// address space until a page is first written. Within the mapping the
// table never moves and past its length it is zero, so growing it is a
// re-slice. Where there is no mapping — the builds mapped_other.go
// serves, a host that refuses one, or an index past the bound (the ref
// slab's free extents of lengths no one allocates) — the table is a Go
// slice and grows by Grow's rule. The mapping is unmapped once the
// Table is unreachable, or at once by Release. T must hold no Go
// pointer: the Go collector does not scan a mapping.
type Table[T any] struct {
	s     []T             // the table; where it lies in m, zero past its length
	m     []T             // the mapping, at its full capacity; nil where there is none
	unmap runtime.Cleanup // unmaps m once the Table is unreachable
}

// mapOff makes Reserve map nothing, as on the builds that cannot. Only
// tests set it: TestMappedAndGrownTablesAgree runs both sides.
var mapOff bool

// mappings counts the mappings Reserve has made and not yet unmapped:
// what TestDroppedOwnersAreUnmapped reads.
var mappings atomic.Int64

// Reserve maps the empty table at n elements, once: a table that is
// mapped already, is not empty, or finds no mapping to be had stays
// what it was. It returns the table.
func (t *Table[T]) Reserve(n int) []T {
	if t.m != nil || len(t.s) > 0 {
		return t.s
	}
	m := mapTable[T](n)
	if m == nil {
		return t.s
	}
	t.s, t.m = m[:0], m
	t.unmap = runtime.AddCleanup(t, unmapTable[T], m)
	return t.s
}

// Reserved reports how many elements the table's mapping holds, 0
// where there is none.
func (t *Table[T]) Reserved() int { return cap(t.m) }

// Cover returns the table at length n, at least its length now. Within
// the mapping that re-slices it and clears nothing, because everything
// past the length is zero already and clearing it would commit pages no
// index uses. Otherwise it grows by Grow's rule, reserving capacity c.
func (t *Table[T]) Cover(n, c int) []T {
	if n <= cap(t.s) && unsafe.SliceData(t.s) == unsafe.SliceData(t.m) {
		t.s = t.s[:n]
	} else {
		t.s = Grow(t.s, n, c)
	}
	return t.s
}

// pageSize is the unit Decommit hands back.
var pageSize = syscall.Getpagesize()

// Decommit takes the table back from its owner empty. s is the table as
// the owner holds it — the owner may have appended to it — through what
// to give back: the length the cell wrote, or the capacity for all of
// it. s reads as zero afterwards, and the table is s[:0]. Where s lies
// in the mapping, the whole pages it covers go back to the kernel
// (dontNeed): they cost address space again, not memory. The bytes of a
// page s shares with memory outside it are cleared by hand, except past
// the mapping's end, which is all the table's; s under a page skips the
// system call. An s that is not in the mapping — a Go slice — is
// cleared, so no Go memory is ever handed back.
func (t *Table[T]) Decommit(s []T) {
	t.s = s[:0]
	var zero T
	size := int(unsafe.Sizeof(zero))
	n := len(s) * size
	if n == 0 {
		return
	}
	off := uintptr(unsafe.Pointer(unsafe.SliceData(s))) - uintptr(unsafe.Pointer(unsafe.SliceData(t.m)))
	whole := cap(t.m) * size
	if cap(t.m) == 0 || off > uintptr(whole) || int(off)+n > whole {
		clear(s)
		return
	}
	// The mapping spans whole pages: the last one's tail past m is m's.
	page := pageSize
	end := (whole + page - 1) &^ (page - 1)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.m))), end)
	lo, hi := (int(off)+page-1)&^(page-1), (int(off)+n)&^(page-1)
	if int(off)+n == whole {
		hi = end
	}
	if lo >= hi {
		clear(s)
		return
	}
	clear(b[off:lo])
	dontNeed(b[lo:hi])
	if tail := int(off) + n; hi < tail {
		clear(b[hi:tail])
	}
}

// Release unmaps the table now, for an owner nobody will use again,
// rather than once it is unreachable. The table is empty afterwards.
func (t *Table[T]) Release() {
	t.unmap.Stop()
	unmapTable(t.m)
	t.s, t.m, t.unmap = nil, nil, runtime.Cleanup{}
}

// mapTable returns n elements of a fresh mapping, or nil where there is
// none to be had: mapping switched off, an n*sizeof(T) no int holds, an
// mmap the kernel refuses.
func mapTable[T any](n int) []T {
	var zero T
	size := unsafe.Sizeof(zero)
	if mapOff || uintptr(n) > math.MaxInt/size {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, n*int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	mappings.Add(1)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// unmapTable releases a mapping mapTable returned; nil is none.
func unmapTable[T any](m []T) {
	if cap(m) == 0 {
		return
	}
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), cap(m)*int(unsafe.Sizeof(zero)))
	if err := syscall.Munmap(b); err != nil {
		panic("heap: munmap: " + err.Error())
	}
	mappings.Add(-1)
}
