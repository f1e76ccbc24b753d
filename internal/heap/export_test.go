//go:build unix && !aix && !race

package heap

// SetMapOff forces Mapped's nil path, the one the other builds take,
// for the external tests in this directory.
func SetMapOff(off bool) { mapOff = off }

// MappingCount reads the gauge of mappings made and not yet released.
func MappingCount() int64 { return mappings.Load() }

// SlabInMapping reports whether the ref slab still lies in the mapping
// New reserved for it, rather than in a Go slice Grow copied it to.
func (h *Heap) SlabInMapping() bool {
	return cap(h.mapped.slab) > 0 && cap(h.slab) > 0 && &h.slab[:1][0] == &h.mapped.slab[:1][0]
}
