//go:build unix && !aix && !linux && !race

package heap

// dontNeed clears b: outside Linux, MADV_DONTNEED does not promise that
// a page reads back as zero, so the pages stay committed.
func dontNeed(b []byte) { clear(b) }
