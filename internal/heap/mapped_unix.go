//go:build unix && !aix && !race

package heap

import (
	"math"
	"syscall"
	"unsafe"
)

// mapTable returns n elements of a fresh mapping, or nil where the
// kernel refuses one or n*sizeof(T) overflows an int.
func mapTable[T any](n int) []T {
	var zero T
	size := unsafe.Sizeof(zero)
	if uintptr(n) > math.MaxInt/size {
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

// unmapTable releases a mapping mapTable returned.
func unmapTable[T any](m []T) {
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), cap(m)*int(unsafe.Sizeof(zero)))
	if err := syscall.Munmap(b); err != nil {
		panic("heap: munmap: " + err.Error())
	}
	mappings.Add(-1)
}
