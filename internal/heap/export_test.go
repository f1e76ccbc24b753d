package heap

import "unsafe"

// SetMapOff makes Table.Reserve map nothing, as the builds without a
// mapping do, for the external tests in this directory.
func SetMapOff(off bool) { mapOff = off }

// MappingCount reads the gauge of mappings made and not yet released.
func MappingCount() int64 { return mappings.Load() }

// SlabInMapping reports whether the ref slab still lies in the mapping
// New reserved for it, rather than in a Go slice it grew into.
func (h *Heap) SlabInMapping() bool {
	return cap(h.mem.slab.m) > 0 && unsafe.SliceData(h.slab) == unsafe.SliceData(h.mem.slab.m)
}
