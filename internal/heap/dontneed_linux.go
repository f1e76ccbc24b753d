//go:build linux && !race

package heap

import "syscall"

// dontNeed hands b's pages back to the kernel. MADV_DONTNEED, not
// MADV_FREE: the resident set falls at once, and a private anonymous
// page reads back as zero. Should the kernel refuse, the pages are
// cleared instead.
func dontNeed(b []byte) {
	if syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}
