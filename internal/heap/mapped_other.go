//go:build !unix || aix || race

package heap

// Mapped returns nil on this build: there is no mmap to draw from (or,
// on aix, no MAP_NORESERVE to ask it for), or the race detector should
// see the tables as the Go slices every other table is. The caller
// starts from an empty table and Grow doubles it; mapped_unix.go has the
// other half.
func Mapped[T any](n int) []T { return nil }

// Unmap has nothing to release on this build.
func Unmap[T any](s []T) {}

// Decommit clears s: on this build no table is in a mapping.
func Decommit[T any](s, m []T) { clear(s) }
