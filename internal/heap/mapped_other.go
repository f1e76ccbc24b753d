//go:build !unix || aix || race

package heap

// Table is mapped_unix.go's type on the builds with no mapping to draw
// from (or, on aix, no MAP_NORESERVE to ask for), and under the race
// detector, which should see the tables as the Go slices every other
// table is: the table is a Go slice that grows by Grow's rule, and
// Decommit clears it.
type Table[T any] struct{ s []T }

// Reserve has nothing to map on this build. It returns the table.
func (t *Table[T]) Reserve(n int) []T { return t.s }

// Reserved reports 0: the table is never in a mapping.
func (t *Table[T]) Reserved() int { return 0 }

// Cover returns the table at length n, grown by Grow's rule.
func (t *Table[T]) Cover(n, c int) []T {
	t.s = Grow(t.s, n, c)
	return t.s
}

// Decommit clears s, the table through what to give back, and keeps
// s[:0] as the table.
func (t *Table[T]) Decommit(s []T) {
	clear(s)
	t.s = s[:0]
}

// Release drops the table.
func (t *Table[T]) Release() { t.s = nil }
