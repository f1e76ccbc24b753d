package heap

import "unsafe"

// SetMapOff makes MapTable map nothing, as the builds without a
// mapping do, for the external tests in this directory.
func SetMapOff(off bool) { mapOff = off }

// MappingCount reads the gauge of mappings made and not yet released.
func MappingCount() int64 { return mappings.Load() }

// SlabInMapping reports whether the ref slab still lies in the mapping
// New made for it, rather than in a Go slice it grew into.
func (h *Heap) SlabInMapping() bool {
	if h.tabs.maps == nil {
		return false
	}
	slab := unsafe.Pointer(unsafe.SliceData(h.slab))
	for _, m := range *h.tabs.maps {
		if unsafe.Pointer(unsafe.SliceData(m)) == slab {
			return true
		}
	}
	return false
}
