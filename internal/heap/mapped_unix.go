//go:build unix && !aix && !race

package heap

import (
	"math"
	"syscall"
	"unsafe"
)

// mapTable returns n elements of a fresh mapping, and the mapping's
// bytes for unmapBytes, or nil where the kernel refuses one or
// n*sizeof(T) overflows an int.
func mapTable[T any](n int) ([]T, []byte) {
	var zero T
	size := unsafe.Sizeof(zero)
	if uintptr(n) > math.MaxInt/size {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n*int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil
	}
	mappings.Add(1)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), b
}

// unmapBytes releases a mapping mapTable returned.
func unmapBytes(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("heap: munmap: " + err.Error())
	}
	mappings.Add(-1)
}
