//go:build unix && !aix && !race

package heap

import (
	"math"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapOff makes Mapped return nil, as it does on the builds that cannot
// map. Only tests set it: TestMappedAndGrownTablesAgree runs both sides.
var mapOff bool

// mappings counts the mappings Mapped has made and Unmap has not yet
// released: what TestDroppedOwnersAreUnmapped reads.
var mappings atomic.Int64

// Mapped returns an empty slice of capacity n over a fresh anonymous
// mapping, or nil where there is none to be had (this build's sibling
// file, an n*sizeof(T) no int holds, an mmap the kernel refuses): the
// caller then starts from an empty table and Grow doubles it. The
// mapping is private, zero-filled and MAP_NORESERVE: it costs address
// space, and a page becomes memory when it is first written. A table of
// a known bound drawn from it never moves — Grow's n <= cap(s) always
// holds — so its growth copies nothing and leaves no dead generation in
// the Go heap. T must hold no Go pointer: the Go collector does not scan
// a mapping. Release it with Unmap, or with a runtime.AddCleanup on the
// value that owns the table.
func Mapped[T any](n int) []T {
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
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)[:0]
}

// pageSize is the unit Decommit hands back.
var pageSize = syscall.Getpagesize()

// Decommit zeroes the table s, which is drawn from m, the mapping Mapped
// returned for it (nil if it returned none). Where s lies in m, the
// whole pages s covers go back to the kernel (dontNeed): they cost
// address space again, not memory, and read back as zero when next
// touched. The bytes of a page s shares with memory outside it are
// cleared by hand, except past the end of m, which is all the table's.
// A table below a page skips the system call. A table that is not in m —
// a Go slice, where Mapped had nothing or Grow copied the table out of
// its mapping — is cleared, so no Go memory is ever handed back.
func Decommit[T any](s, m []T) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	n := len(s) * size
	if n == 0 {
		return
	}
	off := uintptr(unsafe.Pointer(unsafe.SliceData(s))) - uintptr(unsafe.Pointer(unsafe.SliceData(m)))
	whole := cap(m) * size
	if cap(m) == 0 || off > uintptr(whole) || int(off)+n > whole {
		clear(s)
		return
	}
	// The mapping spans whole pages: the last one's tail past m is m's.
	page := pageSize
	end := (whole + page - 1) &^ (page - 1)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), end)
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

// Unmap releases a table Mapped returned, which must not be used again;
// Unmap(nil) does nothing.
func Unmap[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*int(unsafe.Sizeof(zero)))
	if err := syscall.Munmap(b); err != nil {
		panic("heap: munmap: " + err.Error())
	}
	mappings.Add(-1)
}
