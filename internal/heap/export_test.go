//go:build unix && !aix && !race

package heap

// SetMapOff forces Mapped's nil path, the one the other builds take,
// for the external tests in this directory.
func SetMapOff(off bool) { mapOff = off }

// MappingCount reads the gauge of mappings made and not yet released.
func MappingCount() int64 { return mappings.Load() }
