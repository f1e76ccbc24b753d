package heap

import "sync/atomic"

// Snapshot is the heap view an overlapped collection cycle traces
// against: the live bitmap versioned at epoch start plus the handle
// table and ref slab as they stood at that instant (DESIGN.md §10).
//
// The snapshot-at-the-beginning argument rests on what the mutator can
// and cannot touch while the trace runs:
//
//   - Live is a *copy* of the live bitmap, so births and (absent)
//     deaths during the epoch are invisible to the tracer.
//   - handles/slab are captured slice headers, not copies. The mutator
//     may append to either (allocation growth) — growth writes beyond
//     the captured lengths or into a new backing array, never into the
//     extents the snapshot can reach. The handle records and extents of
//     snapshot-live objects are immutable for the whole epoch: under an
//     overlap-admitted (hook-free) collector nothing calls Free or
//     Reinit until the epoch closes, and allocation only writes records
//     of snapshot-dead or freshly appended slots.
//   - The one region both sides touch concurrently is the ref slots of
//     snapshot-live objects: the mutator stores through SetRefEpoch
//     (atomic) and the tracer reads through RefAtomic (atomic), so the
//     race detector sees synchronised accesses and the tracer reads a
//     value each slot actually held at some point in the epoch — the
//     snapshot value or a later store, either of which the SATB
//     invariant covers (internal/msa/overlap.go).
//
// A Snapshot must not outlive the epoch that took it: the backing
// arrays it aliases are only guaranteed quiescent in the regions above
// while the runtime's SATB barrier is armed.
type Snapshot struct {
	// Live is the pooled copy of the live bitmap at epoch start,
	// covering exactly NumHandles handles. Its capacity is reused across
	// epochs.
	Live Bitset

	handles []handle
	slab    []HandleID
	n       int
}

// Snapshot fills s with the heap's current live bitmap, handle-table
// view and slab view, reusing s.Live's capacity. This is the O(live
// bitmap) part of an overlapped cycle's opening pause: one word copy
// per 64 handles, no per-object work.
func (h *Heap) Snapshot(s *Snapshot) {
	s.n = len(h.handles)
	w := BitsetWords(s.n)
	s.Live.Reset(s.n)
	copy(s.Live, h.liveBits[:w])
	s.handles = h.handles
	s.slab = h.slab
}

// NumHandles reports the handle-table length at snapshot time; IDs at
// or beyond it were born during the epoch.
func (s *Snapshot) NumHandles() int { return s.n }

// Release drops the captured views (keeping Live's capacity for the
// next epoch) so a pooled snapshot pins neither the handle table nor
// the slab between cycles.
func (s *Snapshot) Release() {
	s.handles = nil
	s.slab = nil
	s.n = 0
}

// Freeze replaces the snapshot's slab view with a private copy taken
// now, reusing buf's capacity, and returns the copy for reuse. After
// Freeze the snapshot's RefSlots windows are immune to mutator stores:
// a trace over a frozen snapshot reads exactly the epoch-start graph,
// which is what makes first-reaching-frame attribution snapshot-exact
// (the owners-mode property tests use this; production hook-free
// cycles never pay the copy).
func (s *Snapshot) Freeze(buf []HandleID) []HandleID {
	buf = append(buf[:0], s.slab...)
	s.slab = buf
	return buf
}

// RefSlots returns the captured-extent ref window of a snapshot-live
// object. The window aliases the live slab; while the mutator runs,
// elements must be read through RefAtomic. Callers must only pass IDs
// set in s.Live — the snapshot does not re-validate.
func (s *Snapshot) RefSlots(id HandleID) []HandleID {
	hd := &s.handles[int(id)]
	return s.slab[hd.refOff : hd.refOff+hd.refLen]
}

// SizeOf reports the captured arena footprint of a snapshot-live
// object (the parallel sweep reads extents from the snapshot view so
// its batch phase touches no mutator-written record).
func (s *Snapshot) SizeOf(id HandleID) int { return int(s.handles[int(id)].size) }

// AddrOf reports the captured arena address of a snapshot-live object.
func (s *Snapshot) AddrOf(id HandleID) int { return int(s.handles[int(id)].addr) }

// RefAtomic reads element i of a RefSlots window with an atomic load —
// the tracer-side half of the SetRefEpoch synchronisation.
func RefAtomic(slots []HandleID, i int) HandleID {
	return HandleID(atomic.LoadInt32((*int32)(&slots[i])))
}

// SetRefEpoch is SetRef for the mutator while a trace is concurrently
// reading the slab: identical validation and semantics, but the store
// is atomic and the overwritten value is returned so the runtime's
// write barrier can record it in the SATB buffer. The old value is
// read plainly — only the mutator writes ref slots, so it always
// observes its own last store.
func (h *Heap) SetRefEpoch(id HandleID, i int, val HandleID) (old HandleID) {
	hd := h.h(id)
	if uint(i) >= uint(hd.refLen) {
		h.badSlot(hd, i)
	}
	if val != Nil && !h.Live(val) {
		panic("heap: storing dangling reference")
	}
	p := &h.slab[hd.refOff+int32(i)]
	old = *p
	atomic.StoreInt32((*int32)(p), int32(val))
	return old
}
