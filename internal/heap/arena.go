// Package heap implements the managed-heap substrate the contaminated
// garbage collector runs against: a class table, a handle table (Sun's
// JDK 1.1.8 managed objects through handles, §3.1), and a virtual-address
// arena governed by a size-class slab allocator with O(1) alloc, free and
// occupancy accounting (DESIGN.md §8). The JDK's first-fit policy that
// §3.7 describes survives as SpanArena in spanarena_test.go, the
// reference model the slab arena is property-tested against.
//
// The arena is *virtual*: no payload bytes are stored, only extents, which
// is sufficient because CG's behaviour depends on addresses, sizes,
// fragmentation and exhaustion, not on object contents. Reference fields
// live in the handle table, mirroring the JDK split between handle space
// and object space.
package heap

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrOutOfMemory is returned by Arena.Alloc and Heap.Alloc when no free
// block or page run can satisfy a request. The runtime reacts by invoking
// the collector and retrying, exactly as the JDK allocator runs MSA on
// failure.
var ErrOutOfMemory = errors.New("heap: out of memory")

// The size-class ladder is exact: class c serves rounded sizes of
// (c+1)*8 bytes, so a block carries zero intra-class slack and a freed
// object's class is known from its size alone — the property cg+recycle's
// reuse index is rebuilt on (internal/core). The ladder is defined
// arena-independently up to MaxSmallSize so the recycle index does not
// depend on any one arena's page geometry; an arena whose pages are
// narrower than MaxSmallSize simply serves its upper classes from the
// large (page-run) path.
const (
	// MaxSmallSize is the top of the exported size-class ladder: the
	// largest allocation the slab path can serve in the widest page
	// configuration.
	MaxSmallSize = 1 << maxPageShift
	// NumSizeClasses is the number of ladder rungs: sizes 8, 16, ...,
	// MaxSmallSize.
	NumSizeClasses = MaxSmallSize / 8

	// Page geometry scales with capacity: pageShift starts at
	// maxPageShift and shrinks (to minPageShift at the floor) until the
	// arena spans at least minPages pages, so the tight per-workload
	// budgets (24 KiB for compress, 48 KiB for db, ...) are not eaten by
	// page-granularity slack while demographics-sized arenas keep wide
	// pages and the full ladder.
	maxPageShift = 12
	minPageShift = 8
	minPages     = 256
)

// SizeClass maps an allocation size in (0, MaxSmallSize] to its ladder
// class index.
func SizeClass(size int) int { return (size+7)>>3 - 1 }

// SizeClassBytes reports the block size of ladder class c.
func SizeClassBytes(c int) int { return (c + 1) * 8 }

// Info is an arena occupancy snapshot, maintained incrementally so every
// field is O(1) to read — no free-list or slab walks (the gostore malloc
// Info contract).
type Info struct {
	// Capacity is the arena's total byte capacity.
	Capacity int `json:"capacity"`
	// HeapBytes counts bytes drawn from the page heap: slab pages plus
	// large page runs. Capacity - HeapBytes is still un-carved.
	HeapBytes int `json:"heap"`
	// AllocBytes counts bytes in live allocations at their requested
	// sizes — the arena's InUse.
	AllocBytes int `json:"alloc"`
	// Overhead is HeapBytes minus AllocBytes minus the bytes sitting on
	// class free lists: rounding slack inside blocks and page runs, plus
	// page tails too short for their slab's class.
	Overhead int `json:"overhead"`
}

// pageSpan is a free run of n whole pages starting at page.
type pageSpan struct {
	page, n int32
}

// slabRec describes one page. A page is either a slab (class >= 0),
// carving the page into equal blocks of its class size with a free
// bitmap, or not (class < 0): free, part of a large run, or the unused
// short tail. The head page of a large run holds the run's requested
// size in used, which is what SizeAt reads. Partial slabs of a class
// form a doubly-linked list through prev/next; the links are page
// indices, so the whole structure is pointer-free and its table can be
// mapped (tables).
type slabRec struct {
	class  int32 // ladder class, -1 when the page is not a slab
	used   int32 // allocated blocks; a large run's size on its head page
	blocks int32 // total blocks (usable bytes / class bytes)
	prev   int32 // partial-list neighbours, -1 = none
	next   int32
	// freeMask bit b set = block b free. 8 words cover the worst case of
	// pageSize/8 = 512 blocks per page.
	freeMask [8]uint64
}

// Arena is a size-class slab allocator over a virtual address range
// [0, size). Pages are drawn lowest-address-first from a sorted,
// coalesced page heap; small allocations (rounded size <= page size) are
// served from per-class slabs with intrusive partial lists and per-page
// free bitmaps, large ones from contiguous page runs. Alloc, Free and
// Info are O(1); exhaustion is detected in O(1) through the page heap's
// never-underestimating maxRun bound plus per-class list heads.
//
// Addresses are deterministic: the lowest free page and the lowest free
// block are always chosen, partial slabs are pushed and popped at the
// list head, and emptied slabs are cached (one per class) before being
// returned to the page heap only when an allocation would otherwise
// fail. Reset reproduces the fresh-arena address sequence exactly.
type Arena struct {
	size      int
	pageShift uint
	pageSize  int
	fullPages int32 // pages of pageSize bytes; page indices [0, fullPages)
	shortLen  int   // usable bytes of the trailing short page (0 = none)

	// slabs is indexed by page and grown lazily to the high-water page —
	// pages are acquired lowest-first, so its length tracks peak usage,
	// not capacity. Reset maps it at a record per page, the short
	// one included, so within its mapping it never moves.
	slabs []slabRec

	partial []int32 // per-class head of the partial-slab list, -1 = empty
	cached  []int32 // per-class retained fully-free slab, -1 = none
	cachedN int32   // count of non-empty cached entries (O(1) reclaim no-op)

	// tabs holds the page records and the list heads (partial, then
	// cached, in one table) for the one cell the arena serves: Reset
	// maps them fresh and Release unmaps them.
	tabs tables

	freePages []pageSpan // sorted by page, coalesced
	// maxRun is an upper bound on the longest free page run: it never
	// underestimates, so an oversized request fails in O(1). Carving
	// never raises it, frees raise it exactly, and a failed full scan
	// tightens it to the true maximum.
	maxRun    int32
	shortFree bool // the short page is unused and available

	allocBytes    int // live bytes at requested sizes
	heapBytes     int // bytes drawn from the page heap
	freeListBytes int // bytes sitting free inside slabs (blocks * class bytes)

	// reclaims counts cached-slab drains. Reclaim returns page slack to
	// the un-carved pool and so may lower Overhead mid-allocation; the
	// property tests use this counter to scope the overhead-monotonicity
	// invariant to reclaim-free windows.
	reclaims uint64
}

// NewArena returns a slab arena spanning [0, size) bytes, entirely free.
func NewArena(size int) *Arena {
	if size <= 0 || size > MaxArenaBytes {
		panic(fmt.Sprintf("heap: arena size %d outside (0, MaxArenaBytes]", size))
	}
	shift := uint(maxPageShift)
	for shift > minPageShift && size>>shift < minPages {
		shift--
	}
	a := &Arena{
		size:      size,
		pageShift: shift,
		pageSize:  1 << shift,
		fullPages: int32(size >> shift),
	}
	a.shortLen = size - int(a.fullPages)<<shift
	a.Reset()
	return a
}

// Size reports the arena's total byte capacity.
func (a *Arena) Size() int { return a.size }

// InUse reports currently allocated bytes, at requested (pre-rounding)
// sizes — the same accounting the first-fit arena kept, so every
// InUse-derived observable is unchanged.
func (a *Arena) InUse() int { return a.allocBytes }

// FreeBytes reports capacity not allocated to live objects.
func (a *Arena) FreeBytes() int { return a.size - a.allocBytes }

// PageSize reports the arena's page granularity (capacity-scaled).
func (a *Arena) PageSize() int { return a.pageSize }

// Info reports the occupancy snapshot. Every field is a maintained
// counter: O(1), no walks.
func (a *Arena) Info() Info {
	return Info{
		Capacity:   a.size,
		HeapBytes:  a.heapBytes,
		AllocBytes: a.allocBytes,
		Overhead:   a.heapBytes - a.allocBytes - a.freeListBytes,
	}
}

// Reset returns the arena to its entirely-free initial state: the page
// records and list heads of the cell that ran go with it (Release), and
// fresh ones are mapped, a record per page and a head per class for
// each list. The slab table is re-grown from length zero, so every
// record initialises on first use and the post-Reset address sequence
// is identical to a fresh arena's.
func (a *Arena) Reset() {
	a.Release()
	classes := a.pageSize / 8
	a.slabs = mapOn[slabRec](&a.tabs, int(a.fullPages)+1)
	heads := Grow(mapOn[int32](&a.tabs, 2*classes), 2*classes, 2*classes)
	for i := range heads {
		heads[i] = -1
	}
	a.partial, a.cached = heads[:classes:classes], heads[classes:]
	a.cachedN = 0
	a.freePages = a.freePages[:0]
	if a.fullPages > 0 {
		a.freePages = append(a.freePages, pageSpan{0, a.fullPages})
	}
	a.maxRun = a.fullPages
	a.shortFree = a.shortLen >= 8
	a.allocBytes = 0
	a.heapBytes = 0
	a.freeListBytes = 0
	a.reclaims = 0
}

// Release unmaps the arena's page records and list heads now rather
// than once the arena is unreachable: for an arena whose cell has ended.
// The arena must not be used again until Reset maps fresh ones.
func (a *Arena) Release() {
	a.tabs.release()
	a.slabs, a.partial, a.cached = nil, nil, nil
}

// Alloc serves size bytes and returns the extent's base address or
// ErrOutOfMemory. Sizes are rounded to the 8-byte ladder internally, but
// accounting (InUse, Info.AllocBytes) is kept at the requested size.
func (a *Arena) Alloc(size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("heap: invalid allocation size %d", size)
	}
	rounded := align(size)
	if rounded <= a.pageSize {
		return a.allocSmall(size, rounded)
	}
	return a.allocLarge(size)
}

// Free returns the extent [addr, addr+size) to the arena. size must be
// the requested size passed to the Alloc that returned addr.
func (a *Arena) Free(addr, size int) {
	if size <= 0 || addr < 0 || addr+size > a.size {
		panic(fmt.Sprintf("heap: bad free [%d,%d) in arena of %d", addr, addr+size, a.size))
	}
	rounded := align(size)
	if rounded <= a.pageSize {
		a.freeSmall(addr, size, rounded)
		return
	}
	a.freeLarge(addr, size)
}

// SizeAt reports the size of the live extent at addr: its slab's class
// size for a small block, the size passed to Alloc for a large run. A
// small block's size is thus the requested size rounded to 8 bytes,
// which is the requested size itself for every instance the heap
// allocates.
func (a *Arena) SizeAt(addr int) int {
	s := &a.slabs[addr>>a.pageShift]
	if s.class >= 0 {
		return SizeClassBytes(int(s.class))
	}
	return int(s.used)
}

// --- small path ---

func (a *Arena) allocSmall(size, rounded int) (int, error) {
	c := int32(rounded>>3 - 1)
	p := a.partial[c]
	if p < 0 {
		p = a.takeSlabPage(c)
		if p < 0 {
			return 0, ErrOutOfMemory
		}
	}
	s := &a.slabs[p]
	b := 0
	for w := range s.freeMask {
		if m := s.freeMask[w]; m != 0 {
			b = w<<6 + bits.TrailingZeros64(m)
			s.freeMask[w] = m & (m - 1)
			break
		}
	}
	s.used++
	if s.used == s.blocks {
		a.unlinkPartial(c, p)
	}
	a.allocBytes += size
	a.freeListBytes -= rounded
	return int(p)<<a.pageShift + b*rounded, nil
}

// takeSlabPage produces a partial-listed slab for class c: the cached
// fully-free slab if one is retained, else a fresh page from the page
// heap (reclaiming other classes' cached slabs if that is what stands
// between the request and success), else the short tail page. Returns
// the page, linked at the head of c's partial list, or -1.
func (a *Arena) takeSlabPage(c int32) int32 {
	if p := a.cached[c]; p >= 0 {
		a.cached[c] = -1
		a.cachedN--
		a.linkPartial(c, p)
		return p
	}
	p := a.takePage()
	if p < 0 && a.reclaim() {
		p = a.takePage()
	}
	if p >= 0 {
		a.initSlab(p, c, a.pageSize)
		a.linkPartial(c, p)
		return p
	}
	if a.shortFree && a.shortLen >= SizeClassBytes(int(c)) {
		a.shortFree = false
		p = a.fullPages
		a.initSlab(p, c, a.shortLen)
		a.linkPartial(c, p)
		return p
	}
	return -1
}

// initSlab formats page p as a class-c slab over usable bytes, all
// blocks free.
func (a *Arena) initSlab(p, c int32, usable int) {
	a.ensureSlabs(int(p) + 1)
	classBytes := SizeClassBytes(int(c))
	blocks := usable / classBytes
	s := &a.slabs[p]
	s.class = c
	s.used = 0
	s.blocks = int32(blocks)
	s.prev, s.next = -1, -1
	for w := range s.freeMask {
		lo := w << 6
		switch {
		case blocks >= lo+64:
			s.freeMask[w] = ^uint64(0)
		case blocks > lo:
			s.freeMask[w] = 1<<(uint(blocks-lo)) - 1
		default:
			s.freeMask[w] = 0
		}
	}
	a.heapBytes += usable
	a.freeListBytes += blocks * classBytes
}

// blockIndex divides a page offset by a ladder block size: which block
// of the slab holds off, and whether off is that block's first byte.
// Both are at most a page (1 << maxPageShift), so one 32-bit unsigned
// divide and a multiply back are exact, where off/rounded and
// off%rounded on ints are a 64-bit signed divide — several times the
// latency, on every free under every collector.
func blockIndex(off, rounded int) (b int, aligned bool) {
	q := uint32(off) / uint32(rounded)
	return int(q), q*uint32(rounded) == uint32(off)
}

func (a *Arena) freeSmall(addr, size, rounded int) {
	p := int32(addr >> a.pageShift)
	if int(p) >= len(a.slabs) {
		panic(fmt.Sprintf("heap: bad free at %d: page %d not in use", addr, p))
	}
	s := &a.slabs[p]
	c := int32(rounded>>3 - 1)
	if s.class != c {
		panic(fmt.Sprintf("heap: bad free at %d: size %d does not match page class", addr, size))
	}
	b, aligned := blockIndex(addr-int(p)<<a.pageShift, rounded)
	if !aligned || int32(b) >= s.blocks {
		panic(fmt.Sprintf("heap: bad free at %d: misaligned block", addr))
	}
	w, bit := b>>6, uint(b&63)
	if s.freeMask[w]&(1<<bit) != 0 {
		panic(fmt.Sprintf("heap: double free at %d", addr))
	}
	s.freeMask[w] |= 1 << bit
	wasFull := s.used == s.blocks
	s.used--
	a.allocBytes -= size
	a.freeListBytes += rounded
	switch {
	case s.used == 0:
		if !wasFull {
			a.unlinkPartial(c, p)
		}
		a.retireSlab(c, p)
	case wasFull:
		a.linkPartial(c, p)
	}
}

// retireSlab handles a slab that just emptied: the short page returns to
// its dedicated free flag, one empty slab per class is cached for
// immediate reuse (the churn pattern: a class oscillating around a page
// boundary), and further empties return to the page heap.
func (a *Arena) retireSlab(c, p int32) {
	if p == a.fullPages {
		s := &a.slabs[p]
		a.heapBytes -= a.shortLen
		a.freeListBytes -= int(s.blocks) * SizeClassBytes(int(c))
		s.class = -1
		a.shortFree = true
		return
	}
	if a.cached[c] < 0 {
		a.cached[c] = p
		a.cachedN++
		return
	}
	a.releaseSlab(p)
}

// releaseSlab returns a fully-free full-page slab to the page heap.
func (a *Arena) releaseSlab(p int32) {
	s := &a.slabs[p]
	a.heapBytes -= a.pageSize
	a.freeListBytes -= int(s.blocks) * SizeClassBytes(int(s.class))
	s.class = -1
	a.freeRun(p, 1)
}

// reclaim drains every cached fully-free slab back to the page heap. It
// runs only on the allocation-failure path; cachedN makes the no-op case
// O(1), keeping repeated failures (the §3.7 allocation storm that drives
// recycling) constant-time.
func (a *Arena) reclaim() bool {
	if a.cachedN == 0 {
		return false
	}
	for c := range a.cached {
		if p := a.cached[c]; p >= 0 {
			a.cached[c] = -1
			a.releaseSlab(p)
		}
	}
	a.cachedN = 0
	a.reclaims++
	return true
}

// linkPartial pushes p at the head of class c's partial list.
func (a *Arena) linkPartial(c, p int32) {
	s := &a.slabs[p]
	s.prev = -1
	s.next = a.partial[c]
	if s.next >= 0 {
		a.slabs[s.next].prev = p
	}
	a.partial[c] = p
}

// unlinkPartial removes p from class c's partial list.
func (a *Arena) unlinkPartial(c, p int32) {
	s := &a.slabs[p]
	if s.prev >= 0 {
		a.slabs[s.prev].next = s.next
	} else {
		a.partial[c] = s.next
	}
	if s.next >= 0 {
		a.slabs[s.next].prev = s.prev
	}
	s.prev, s.next = -1, -1
}

// ensureSlabs grows the slab table to cover n pages. New records are
// explicitly not-a-slab (the zero class would alias ladder class 0).
func (a *Arena) ensureSlabs(n int) {
	for len(a.slabs) < n {
		a.slabs = append(a.slabs, slabRec{class: -1})
	}
}

// --- large path ---

func (a *Arena) allocLarge(size int) (int, error) {
	n := int32((size + a.pageSize - 1) >> a.pageShift)
	p := a.takeRun(n)
	if p < 0 && a.reclaim() {
		p = a.takeRun(n)
	}
	if p < 0 {
		return 0, ErrOutOfMemory
	}
	a.ensureSlabs(int(p) + 1)
	a.slabs[p].used = int32(size)
	a.heapBytes += int(n) << a.pageShift
	a.allocBytes += size
	return int(p) << a.pageShift, nil
}

func (a *Arena) freeLarge(addr, size int) {
	if addr&(a.pageSize-1) != 0 {
		panic(fmt.Sprintf("heap: bad free at %d: large extent not page-aligned", addr))
	}
	p := int32(addr >> a.pageShift)
	if int(p) < len(a.slabs) && a.slabs[p].class >= 0 {
		panic(fmt.Sprintf("heap: bad free at %d: page %d is a live slab", addr, p))
	}
	n := int32((size + a.pageSize - 1) >> a.pageShift)
	a.heapBytes -= int(n) << a.pageShift
	a.allocBytes -= size
	a.freeRun(p, n)
}

// takePage pops the lowest free page: O(1) against the head span.
func (a *Arena) takePage() int32 {
	if len(a.freePages) == 0 {
		return -1
	}
	s := &a.freePages[0]
	p := s.page
	s.page++
	s.n--
	if s.n == 0 {
		a.freePages = append(a.freePages[:0], a.freePages[1:]...)
	}
	return p
}

// takeRun carves the first (lowest-address) free run of at least n
// pages. The maxRun bound makes the failure answer O(1); a failed full
// scan tightens it to the true maximum so an exhaustion storm stays
// O(1) per request.
func (a *Arena) takeRun(n int32) int32 {
	if n > a.maxRun {
		return -1
	}
	largest := int32(0)
	for i := range a.freePages {
		s := &a.freePages[i]
		if s.n < n {
			if s.n > largest {
				largest = s.n
			}
			continue
		}
		p := s.page
		s.page += n
		s.n -= n
		if s.n == 0 {
			a.freePages = append(a.freePages[:i], a.freePages[i+1:]...)
		}
		return p
	}
	a.maxRun = largest
	return -1
}

// freeRun returns pages [page, page+n) to the page heap, coalescing with
// neighbours and raising maxRun exactly.
func (a *Arena) freeRun(page, n int32) {
	// Locate the insertion index. Frees cluster near the low end (pages
	// are handed out lowest-first), and the span list is short in steady
	// state; a linear scan from the front matches the access pattern.
	i := 0
	for i < len(a.freePages) && a.freePages[i].page < page {
		i++
	}
	if i > 0 && a.freePages[i-1].page+a.freePages[i-1].n > page {
		panic(fmt.Sprintf("heap: double free of page run [%d,%d)", page, page+n))
	}
	if i < len(a.freePages) && page+n > a.freePages[i].page {
		panic(fmt.Sprintf("heap: double free of page run [%d,%d)", page, page+n))
	}
	mergeLeft := i > 0 && a.freePages[i-1].page+a.freePages[i-1].n == page
	mergeRight := i < len(a.freePages) && a.freePages[i].page == page+n
	merged := n
	switch {
	case mergeLeft && mergeRight:
		a.freePages[i-1].n += n + a.freePages[i].n
		merged = a.freePages[i-1].n
		a.freePages = append(a.freePages[:i], a.freePages[i+1:]...)
	case mergeLeft:
		a.freePages[i-1].n += n
		merged = a.freePages[i-1].n
	case mergeRight:
		a.freePages[i].page = page
		a.freePages[i].n += n
		merged = a.freePages[i].n
	default:
		a.freePages = append(a.freePages, pageSpan{})
		copy(a.freePages[i+1:], a.freePages[i:])
		a.freePages[i] = pageSpan{page, n}
	}
	if merged > a.maxRun {
		a.maxRun = merged
	}
}

// checkInvariants recomputes the arena's structure from scratch and
// cross-checks every maintained counter. Exported to the package's
// tests; O(pages), never called on production paths.
func (a *Arena) checkInvariants() error {
	slabHeap, slabFree, slabCount := 0, 0, 0
	onPartial := make(map[int32]bool)
	for c := range a.partial {
		seen := map[int32]bool{}
		prev := int32(-1)
		for p := a.partial[c]; p >= 0; p = a.slabs[p].next {
			if seen[p] {
				return fmt.Errorf("class %d partial list cycles at page %d", c, p)
			}
			seen[p] = true
			s := &a.slabs[p]
			if s.class != int32(c) {
				return fmt.Errorf("page %d on class %d list has class %d", p, c, s.class)
			}
			if s.prev != prev {
				return fmt.Errorf("page %d prev link %d, want %d", p, s.prev, prev)
			}
			if s.used == 0 || s.used == s.blocks {
				return fmt.Errorf("page %d on partial list with used=%d/%d", p, s.used, s.blocks)
			}
			onPartial[p] = true
			prev = p
		}
	}
	cachedN := int32(0)
	for c, p := range a.cached {
		if p < 0 {
			continue
		}
		cachedN++
		s := &a.slabs[p]
		if s.class != int32(c) || s.used != 0 {
			return fmt.Errorf("cached page %d: class %d used %d, want class %d used 0", p, s.class, s.used, c)
		}
	}
	if cachedN != a.cachedN {
		return fmt.Errorf("cachedN %d, counted %d", a.cachedN, cachedN)
	}
	for p := range a.slabs {
		s := &a.slabs[p]
		if s.class < 0 {
			continue
		}
		usable := a.pageSize
		if int32(p) == a.fullPages {
			usable = a.shortLen
		}
		classBytes := SizeClassBytes(int(s.class))
		if int(s.blocks) != usable/classBytes {
			return fmt.Errorf("page %d: %d blocks, want %d", p, s.blocks, usable/classBytes)
		}
		free := 0
		for w := range s.freeMask {
			free += bits.OnesCount64(s.freeMask[w])
		}
		if int32(free) != s.blocks-s.used {
			return fmt.Errorf("page %d: mask holds %d free, used %d of %d", p, free, s.used, s.blocks)
		}
		if s.used > 0 && s.used < s.blocks && !onPartial[int32(p)] {
			return fmt.Errorf("page %d partial (%d/%d) but not listed", p, s.used, s.blocks)
		}
		slabHeap += usable
		slabFree += free * classBytes
		slabCount++
	}
	pagesFree := int32(0)
	for i, s := range a.freePages {
		if s.n <= 0 {
			return fmt.Errorf("page span %d has length %d", i, s.n)
		}
		if s.page < 0 || s.page+s.n > a.fullPages {
			return fmt.Errorf("page span %d out of range: [%d,%d)", i, s.page, s.page+s.n)
		}
		if i > 0 {
			prev := a.freePages[i-1]
			if prev.page+prev.n >= s.page {
				return fmt.Errorf("page spans %d,%d overlap or uncoalesced", i-1, i)
			}
		}
		if int(s.page) < len(a.slabs) {
			for p := s.page; p < s.page+s.n && int(p) < len(a.slabs); p++ {
				if a.slabs[p].class >= 0 {
					return fmt.Errorf("free page %d is a live slab", p)
				}
			}
		}
		pagesFree += s.n
	}
	if largest := int32(0); true {
		for _, s := range a.freePages {
			if s.n > largest {
				largest = s.n
			}
		}
		if largest > a.maxRun {
			return fmt.Errorf("maxRun bound %d underestimates largest run %d", a.maxRun, largest)
		}
	}
	if slabFree != a.freeListBytes {
		return fmt.Errorf("freeListBytes %d, slabs hold %d", a.freeListBytes, slabFree)
	}
	largeHeap := a.heapBytes - slabHeap
	if largeHeap < 0 || largeHeap%a.pageSize != 0 {
		return fmt.Errorf("heapBytes %d inconsistent with slab bytes %d", a.heapBytes, slabHeap)
	}
	largePages := int32(largeHeap >> a.pageShift)
	slabFullPages := int32(slabCount)
	if !a.shortFree && a.shortLen >= 8 {
		// The short page is in use as a slab (counted in slabCount) or
		// unusable; when it is a slab it is not a full page.
		if int(a.fullPages) < len(a.slabs) && a.slabs[a.fullPages].class >= 0 {
			slabFullPages--
		}
	}
	if pagesFree+slabFullPages+largePages != a.fullPages {
		return fmt.Errorf("page accounting: %d free + %d slab + %d large != %d",
			pagesFree, slabFullPages, largePages, a.fullPages)
	}
	if a.allocBytes < 0 || a.allocBytes > a.size {
		return fmt.Errorf("allocBytes %d out of range", a.allocBytes)
	}
	if over := a.heapBytes - a.allocBytes - a.freeListBytes; over < 0 {
		return fmt.Errorf("negative overhead %d", over)
	}
	return nil
}
