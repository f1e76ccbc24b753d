package heap

import "math/bits"

// Parallel sweep primitives (DESIGN.md §10).
//
// The sequential hook-free sweep interleaves three kinds of work per
// garbage object: handle-record release (live flag, ref extent), live
// bitmap maintenance, and the arena free. Only the arena free is
// order-sensitive — block placement, partial-list linkage, slab
// caching and page coalescing all depend on the order frees arrive —
// so the parallel sweep splits the phases:
//
//  1. CollectGarbageRange (parallel): workers own disjoint word ranges
//     of the live/mark bitmaps. Each worker releases the handle
//     records and live bits of its range's garbage and records the
//     (id, addr, size) free list into a private FreeBatch, in
//     ascending handle order. Handle records of distinct IDs and words
//     of distinct ranges never alias, so this phase needs no locks and
//     no atomics.
//  2. ApplyFreeBatch (sequential): batches are merged into the arena
//     in ascending word-range order, each batch already ascending — so
//     the arena observes exactly the canonical lowest-ID (= the
//     sequential sweep's) free sequence, and the free-ID list refills
//     in the identical order. The post-sweep arena and handle table
//     are byte-for-byte the state the sequential sweep produces, which
//     is what keeps Reset-replay address determinism and every seed
//     observable intact.
type FreeBatch struct {
	entries []freeEnt
	// freedBytes accumulates requested-size bytes for observability.
	freedBytes uint64
}

type freeEnt struct {
	id   HandleID
	addr int32
	size int32
}

// Len reports the number of frees the batch holds.
func (b *FreeBatch) Len() int { return len(b.entries) }

// FreedBytes reports the cumulative requested-size bytes in the batch.
func (b *FreeBatch) FreedBytes() uint64 { return b.freedBytes }

// Reset empties the batch, keeping capacity.
func (b *FreeBatch) Reset() {
	b.entries = b.entries[:0]
	b.freedBytes = 0
}

// CollectGarbageRange sweeps words [loWord, hiWord) of live&^mark into
// b: every garbage object's handle record is released (live flag
// cleared, ref extent truncated — the extent stays bound to the slot
// for reuse, exactly as Free leaves it), its live bit cleared, and its
// (id, addr, size) appended to b in ascending handle order. live is
// the bitmap the cycle decided garbage against — the current bitmap
// for a stop-the-world sweep, the epoch snapshot for an overlapped one
// (objects born during the epoch have bits in the current bitmap only,
// so they are never garbage here and their bits survive the word-level
// clear untouched).
//
// Safe to call from concurrent goroutines with disjoint word ranges:
// all writes are to handle records of this range's IDs and to this
// range's words of the live bitmap.
func (h *Heap) CollectGarbageRange(live, mark Bitset, loWord, hiWord int, b *FreeBatch) {
	lb := h.liveBits
	for k := loWord; k < hiWord; k++ {
		g := live[k] &^ mark[k]
		if g == 0 {
			continue
		}
		lb[k] &^= g
		base := k << 6
		for ; g != 0; g &= g - 1 {
			id := HandleID(base + bits.TrailingZeros64(g))
			hd := &h.handles[int(id)]
			hd.live = false
			hd.refLen = 0
			b.entries = append(b.entries, freeEnt{id: id, addr: hd.addr, size: hd.size})
			b.freedBytes += uint64(hd.size)
		}
	}
}

// ApplyFreeBatch merges one batch into the arena and the free-ID list,
// in batch order, and returns the number of objects freed. Callers
// apply batches in ascending word-range order so the combined sequence
// is the canonical sequential sweep order.
func (h *Heap) ApplyFreeBatch(b *FreeBatch) int {
	for _, e := range b.entries {
		h.arena.Free(int(e.addr), int(e.size))
		h.freeIDs = append(h.freeIDs, e.id)
	}
	n := len(b.entries)
	h.stats.Frees += uint64(n)
	return n
}
