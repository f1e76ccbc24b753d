package heap

import (
	"fmt"
	"sort"
)

// span is a free extent [addr, addr+size).
type span struct {
	addr, size int
}

// SpanArena is the first-fit allocator over a virtual address range
// [0, size) that governed the heap before the size-class slab arena: free
// spans are kept sorted by address; allocation scans from a rotating
// cursor (the remembered last-allocation position) and wraps once before
// failing, reproducing the JDK 1.1.8 policy that §4.8 analyses.
//
// It is retained as the *reference model* for the slab arena's property
// tests: its success/failure behaviour under coalescing is the ground
// truth the slab arena is checked against in the regimes where the two
// provably agree (see arena_prop_test.go).
type SpanArena struct {
	size    int
	free    []span // sorted by addr, never adjacent (always coalesced)
	cursor  int    // address just past the last allocation; scans start here
	curIdx  int    // hint: index of the first span at/after cursor (validated before use)
	freeIdx int    // hint: insertion index of the last Free (validated before use)
	inUse   int    // allocated bytes
	// maxFree is an upper bound on the largest free span: it never
	// underestimates, so a request above it fails in O(1) instead of
	// scanning every span to prove exhaustion. Carving never raises it,
	// frees raise it exactly, and a failed full scan tightens it to the
	// true maximum.
	maxFree int
}

// NewSpanArena returns a first-fit arena spanning [0, size) bytes,
// entirely free.
func NewSpanArena(size int) *SpanArena {
	if size <= 0 {
		panic(fmt.Sprintf("heap: non-positive arena size %d", size))
	}
	return &SpanArena{size: size, free: []span{{0, size}}, maxFree: size}
}

// Size reports the arena's total byte capacity.
func (a *SpanArena) Size() int { return a.size }

// Reset returns the arena to its entirely-free initial state without
// releasing the span slice's capacity.
func (a *SpanArena) Reset() {
	a.free = append(a.free[:0], span{0, a.size})
	a.cursor = 0
	a.curIdx = 0
	a.freeIdx = 0
	a.inUse = 0
	a.maxFree = a.size
}

// InUse reports currently allocated bytes.
func (a *SpanArena) InUse() int { return a.inUse }

// FreeBytes reports currently free bytes.
func (a *SpanArena) FreeBytes() int { return a.size - a.inUse }

// FreeSpans reports the number of discontiguous free extents — a direct
// fragmentation measure.
func (a *SpanArena) FreeSpans() int { return len(a.free) }

// LargestFree reports the largest single free extent.
func (a *SpanArena) LargestFree() int {
	max := 0
	for _, s := range a.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// Alloc carves size bytes out of the first fitting free span at or after
// the cursor, wrapping to the start once. It returns the extent's base
// address or ErrOutOfMemory.
func (a *SpanArena) Alloc(size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("heap: invalid allocation size %d", size)
	}
	if size > a.maxFree {
		return 0, ErrOutOfMemory
	}
	n := len(a.free)
	start := a.startIndex(n)
	largest := 0
	for probe := 0; probe < n; probe++ {
		i := start + probe
		if i >= n {
			i -= n
		}
		if a.free[i].size < size {
			if a.free[i].size > largest {
				largest = a.free[i].size
			}
			continue
		}
		addr := a.free[i].addr
		if a.free[i].size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i].addr += size
			a.free[i].size -= size
		}
		a.cursor = addr + size
		// Either the carved span shrank (its addr is now the cursor) or
		// it was removed (the old next span slid into index i, and its
		// addr exceeds the cursor); both make i the next start index.
		a.curIdx = i
		a.inUse += size
		return addr, nil
	}
	// The scan visited every span, so largest is exact: tighten the
	// bound so the rest of the storm fails without scanning.
	a.maxFree = largest
	return 0, ErrOutOfMemory
}

// startIndex resolves the first free span at or after the cursor. The
// cached hint is authoritative whenever it still brackets the cursor —
// true for any run of allocations with no interleaved free, which is
// the dominant pattern — so the common case costs two compares instead
// of a binary search per allocation.
func (a *SpanArena) startIndex(n int) int {
	i := a.curIdx
	if i <= n && (i == n || a.free[i].addr >= a.cursor) && (i == 0 || a.free[i-1].addr < a.cursor) {
		return i
	}
	return sort.Search(n, func(j int) bool { return a.free[j].addr >= a.cursor })
}

// Free returns the extent [addr, addr+size) to the free pool, coalescing
// with adjacent free spans ("tries to coalesce two contiguous objects",
// §3.7).
func (a *SpanArena) Free(addr, size int) {
	if size <= 0 || addr < 0 || addr+size > a.size {
		panic(fmt.Sprintf("heap: bad free [%d,%d) in arena of %d", addr, addr+size, a.size))
	}
	i := a.freeIndex(addr)
	// Overlap checks guard the no-overlap invariant (DESIGN.md §8 "The
	// ladder").
	if i > 0 && a.free[i-1].addr+a.free[i-1].size > addr {
		panic(fmt.Sprintf("heap: double free or overlap at %d", addr))
	}
	if i < len(a.free) && addr+size > a.free[i].addr {
		panic(fmt.Sprintf("heap: double free or overlap at %d", addr))
	}
	mergeLeft := i > 0 && a.free[i-1].addr+a.free[i-1].size == addr
	mergeRight := i < len(a.free) && a.free[i].addr == addr+size
	merged := size
	switch {
	case mergeLeft && mergeRight:
		a.free[i-1].size += size + a.free[i].size
		merged = a.free[i-1].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	case mergeLeft:
		a.free[i-1].size += size
		merged = a.free[i-1].size
	case mergeRight:
		a.free[i].addr = addr
		a.free[i].size += size
		merged = a.free[i].size
	default:
		a.free = append(a.free, span{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = span{addr, size}
	}
	if merged > a.maxFree {
		a.maxFree = merged
	}
	a.freeIdx = i
	a.inUse -= size
}

// freeIndex resolves the insertion index for a free at addr: the first
// span at or after it. A dying equilive set releases its members in
// allocation order, so consecutive frees bracket at (or next to) the
// previous free's index; the cached hint turns the per-free binary
// search into a couple of compares, falling back to the search when an
// interleaved allocation moved things.
func (a *SpanArena) freeIndex(addr int) int {
	n := len(a.free)
	for i := a.freeIdx; i <= a.freeIdx+1 && i <= n; i++ {
		if (i == n || a.free[i].addr >= addr) && (i == 0 || a.free[i-1].addr < addr) {
			return i
		}
	}
	return sort.Search(n, func(i int) bool { return a.free[i].addr >= addr })
}

// checkInvariants validates the sorted/coalesced/accounted structure. It
// is exported to the package's tests.
func (a *SpanArena) checkInvariants() error {
	freeSum := 0
	for i, s := range a.free {
		if s.size <= 0 {
			return fmt.Errorf("span %d has size %d", i, s.size)
		}
		if s.addr < 0 || s.addr+s.size > a.size {
			return fmt.Errorf("span %d out of range: [%d,%d)", i, s.addr, s.addr+s.size)
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.addr+prev.size > s.addr {
				return fmt.Errorf("spans %d,%d overlap", i-1, i)
			}
			if prev.addr+prev.size == s.addr {
				return fmt.Errorf("spans %d,%d not coalesced", i-1, i)
			}
		}
		freeSum += s.size
	}
	if freeSum+a.inUse != a.size {
		return fmt.Errorf("accounting: free %d + inUse %d != size %d", freeSum, a.inUse, a.size)
	}
	if largest := a.LargestFree(); largest > a.maxFree {
		return fmt.Errorf("maxFree bound %d underestimates largest free span %d", a.maxFree, largest)
	}
	return nil
}
