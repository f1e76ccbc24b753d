//go:build !race

package heap_test

import (
	"os"
	"syscall"
	"unsafe"
)

func init() { residentPages = mincore }

// mincore counts the pages of b the kernel holds in memory (mincore(2)),
// through the whole pages b covers; -1 if it cannot tell.
func mincore(b []byte) int {
	page := os.Getpagesize()
	start := (uintptr(unsafe.Pointer(unsafe.SliceData(b))) + uintptr(page) - 1) &^ uintptr(page-1)
	end := (uintptr(unsafe.Pointer(unsafe.SliceData(b))) + uintptr(len(b))) &^ uintptr(page-1)
	if end <= start {
		return 0
	}
	vec := make([]byte, (end-start)/uintptr(page))
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, start, end-start, uintptr(unsafe.Pointer(unsafe.SliceData(vec))))
	if errno != 0 {
		return -1
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n
}
