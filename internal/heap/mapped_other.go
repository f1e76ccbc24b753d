//go:build !unix || aix || race

package heap

// mapTable has no mapping to hand out on the builds with none to draw
// from (or, on aix, no MAP_NORESERVE to ask for), nor under the race
// detector, which should see the tables as the Go slices every other
// table is: every table grows by Grow's rule.
func mapTable[T any](int) ([]T, []byte) { return nil, nil }

// unmapBytes has nothing to release: mapTable never maps.
func unmapBytes([]byte) {}
