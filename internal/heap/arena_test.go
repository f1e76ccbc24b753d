package heap

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSizeClassLadder(t *testing.T) {
	for size := 1; size <= MaxSmallSize; size++ {
		c := SizeClass(size)
		if c < 0 || c >= NumSizeClasses {
			t.Fatalf("SizeClass(%d) = %d out of range", size, c)
		}
		b := SizeClassBytes(c)
		if b < size || b != align(size) {
			t.Fatalf("class %d holds %d bytes, cannot serve %d exactly", c, b, size)
		}
	}
	if SizeClassBytes(NumSizeClasses-1) != MaxSmallSize {
		t.Fatalf("top class serves %d, want %d", SizeClassBytes(NumSizeClasses-1), MaxSmallSize)
	}
}

func TestArenaCapacityScaledPageSize(t *testing.T) {
	cases := []struct{ size, page int }{
		{64, 256},       // floor: tiny arena is all short page
		{24 << 10, 256}, // compress's tight budget
		{64 << 10, 256}, // mpegaudio's tight budget
		{256 << 10, 1024},
		{1 << 20, 4096}, // full ladder from 1 MiB up
		{512 << 20, 4096},
	}
	for _, tc := range cases {
		if got := NewArena(tc.size).PageSize(); got != tc.page {
			t.Errorf("NewArena(%d).PageSize() = %d, want %d", tc.size, got, tc.page)
		}
	}
}

func TestArenaAllocFree(t *testing.T) {
	a := NewArena(1 << 20)
	if a.FreeBytes() != 1<<20 || a.InUse() != 0 {
		t.Fatalf("fresh arena accounting wrong: free=%d inUse=%d", a.FreeBytes(), a.InUse())
	}
	p1, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("overlapping allocations")
	}
	if a.InUse() != 384 {
		t.Fatalf("inUse = %d, want 384", a.InUse())
	}
	in := a.Info()
	if in.AllocBytes != 384 || in.Capacity != 1<<20 {
		t.Fatalf("Info = %+v, want alloc 384 of 1 MiB", in)
	}
	if in.HeapBytes != 2*a.PageSize() {
		t.Fatalf("Info.HeapBytes = %d, want two pages (%d)", in.HeapBytes, 2*a.PageSize())
	}
	a.Free(p1, 128)
	a.Free(p2, 256)
	if a.FreeBytes() != 1<<20 || a.InUse() != 0 {
		t.Fatalf("free did not restore accounting: free=%d inUse=%d", a.FreeBytes(), a.InUse())
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSameClassReuse pins the slab discipline: a free followed by a
// same-class alloc hands the same block back (lowest free bit of the
// head partial slab).
func TestArenaSameClassReuse(t *testing.T) {
	a := NewArena(1 << 20)
	p1, _ := a.Alloc(48)
	p2, _ := a.Alloc(48)
	if p2 != p1+48 {
		t.Fatalf("second block at %d, want %d (adjacent in slab)", p2, p1+48)
	}
	a.Free(p1, 48)
	p3, _ := a.Alloc(48)
	if p3 != p1 {
		t.Fatalf("freed block not reused: got %d want %d", p3, p1)
	}
}

func TestArenaExhaustionAndRecovery(t *testing.T) {
	a := NewArena(256)
	p, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	a.Free(p, 256)
	if _, err := a.Alloc(256); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

// TestArenaShortPage covers arenas smaller than one page: the trailing
// short extent must serve classes that fit it, exactly once.
func TestArenaShortPage(t *testing.T) {
	a := NewArena(64)
	p, err := a.Alloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(48); err != ErrOutOfMemory {
		t.Fatalf("second alloc: want ErrOutOfMemory, got %v", err)
	}
	a.Free(p, 48)
	if _, err := a.Alloc(48); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestArenaLargePath(t *testing.T) {
	a := NewArena(1 << 20)
	big := 3*a.PageSize() + 40
	p, err := a.Alloc(big)
	if err != nil {
		t.Fatal(err)
	}
	if p%a.PageSize() != 0 {
		t.Fatalf("large extent at %d not page-aligned", p)
	}
	in := a.Info()
	if in.HeapBytes != 4*a.PageSize() {
		t.Fatalf("HeapBytes = %d, want 4 pages", in.HeapBytes)
	}
	if in.AllocBytes != big {
		t.Fatalf("AllocBytes = %d, want %d", in.AllocBytes, big)
	}
	if want := 4*a.PageSize() - big; in.Overhead != want {
		t.Fatalf("Overhead = %d, want run slack %d", in.Overhead, want)
	}
	a.Free(p, big)
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if in := a.Info(); in.HeapBytes != 0 || in.AllocBytes != 0 || in.Overhead != 0 {
		t.Fatalf("Info after drain = %+v, want zeros", in)
	}
}

// TestArenaReclaimCachedSlab: a cached fully-free slab must be
// surrendered when a large allocation would otherwise fail.
func TestArenaReclaimCachedSlab(t *testing.T) {
	size := 2 << 10 // 2 KiB => 256-byte pages, 8 full pages
	a := NewArena(size)
	ps := a.PageSize()
	// Turn every page into a class slab, then free all: one slab stays
	// cached, the rest return to the page heap.
	var ptrs []int
	for {
		p, err := a.Alloc(32)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		a.Free(p, 32)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The whole arena as one run requires every page, including the
	// cached slab's.
	p, err := a.Alloc(8 * ps)
	if err != nil {
		t.Fatalf("large alloc did not reclaim cached slab: %v", err)
	}
	a.Free(p, 8*ps)
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena(1 << 16)
	p, _ := a.Alloc(64)
	a.Free(p, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p, 64)
}

func TestArenaLargeDoubleFreePanics(t *testing.T) {
	a := NewArena(1 << 16)
	big := 2 * a.PageSize()
	p, _ := a.Alloc(big)
	a.Free(p, big)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p, big)
}

// TestBlockIndexMatchesDivision compares freeSmall's 32-bit divide with
// int / and % over everything it can be handed: every ladder class
// against every 8-aligned offset in the widest page.
func TestBlockIndexMatchesDivision(t *testing.T) {
	for c := 0; c < NumSizeClasses; c++ {
		rounded := SizeClassBytes(c)
		for off := 0; off < MaxSmallSize; off += 8 {
			b, aligned := blockIndex(off, rounded)
			if b != off/rounded || aligned != (off%rounded == 0) {
				t.Fatalf("blockIndex(%d, %d) = %d, %v; want %d, %v", off, rounded, b, aligned, off/rounded, off%rounded == 0)
			}
		}
	}
}

// TestArenaBadSmallFreePanics: a free the slab cannot have handed out
// is refused by name — wrong size class for the page, an address inside
// a block, a block already free.
func TestArenaBadSmallFreePanics(t *testing.T) {
	a := NewArena(1 << 16)
	p, _ := a.Alloc(64)
	q, _ := a.Alloc(64)
	a.Free(q, 64)
	for _, tc := range []struct {
		addr, size int
		want       string
	}{
		{p, 48, "does not match page class"},
		{p + 8, 64, "misaligned block"},
		{q, 64, "double free"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("Free(%d, %d) panicked with %q, want %q", tc.addr, tc.size, msg, tc.want)
				}
			}()
			a.Free(tc.addr, tc.size)
		}()
	}
	a.Free(p, 64)
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// arenaScript replays a deterministic mixed small/large workload and
// returns every address Alloc handed out.
func arenaScript(a *Arena, seed int64, steps int) []int {
	rng := rand.New(rand.NewSource(seed))
	type ext struct{ addr, size int }
	var live []ext
	var addrs []int
	for i := 0; i < steps; i++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			var size int
			if rng.Intn(8) == 0 {
				size = a.PageSize() + rng.Intn(3*a.PageSize())
			} else {
				size = 1 + rng.Intn(200)
			}
			if addr, err := a.Alloc(size); err == nil {
				live = append(live, ext{addr, size})
				addrs = append(addrs, addr)
			} else {
				addrs = append(addrs, -1)
			}
		} else {
			j := rng.Intn(len(live))
			a.Free(live[j].addr, live[j].size)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, e := range live {
		a.Free(e.addr, e.size)
	}
	return addrs
}

// TestArenaResetDeterministic pins the address determinism Reset
// promises: a reset arena replays the fresh arena's exact address
// sequence, so reset shards are observably identical to fresh ones.
func TestArenaResetDeterministic(t *testing.T) {
	a := NewArena(1 << 16)
	first := arenaScript(a, 42, 4000)
	a.Reset()
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	second := arenaScript(a, 42, 4000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d: fresh addr %d, post-Reset addr %d", i, first[i], second[i])
		}
	}
	fresh := arenaScript(NewArena(1<<16), 42, 4000)
	for i := range first {
		if first[i] != fresh[i] {
			t.Fatalf("op %d: addr %d, fresh arena %d", i, first[i], fresh[i])
		}
	}
}

// TestArenaReleaseKeepsWorking: Release unmaps the arena's page records
// and list heads, and Reset maps fresh ones, on which the arena replays
// the address sequence it served before.
func TestArenaReleaseKeepsWorking(t *testing.T) {
	a := NewArena(1 << 16)
	before := arenaScript(a, 7, 1000)
	a.Release()
	if a.slabs != nil || a.tabs.maps != nil {
		t.Fatal("a released arena still holds its tables")
	}
	a.Reset()
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	after := arenaScript(a, 7, 1000)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("op %d: pre-Release addr %d, post-Release addr %d", i, before[i], after[i])
		}
	}
}

// TestArenaRandomizedInvariants drives a random mixed workload and
// recomputes every maintained counter after each operation, and checks
// that the extents the arena actually reserved (class blocks, page
// runs) never overlap.
func TestArenaRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := NewArena(1 << 16)
	type ext struct{ addr, size, reserved int }
	var live []ext
	reservedFor := func(size int) int {
		if align(size) <= a.PageSize() {
			return align(size)
		}
		n := (size + a.PageSize() - 1) / a.PageSize()
		return n * a.PageSize()
	}
	for step := 0; step < 6000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			var size int
			switch rng.Intn(10) {
			case 0:
				size = a.PageSize() + rng.Intn(4*a.PageSize())
			case 1:
				size = a.PageSize() - 8 + rng.Intn(16)
			default:
				size = 1 + rng.Intn(256)
			}
			addr, err := a.Alloc(size)
			if err == nil {
				live = append(live, ext{addr, size, reservedFor(size)})
			}
		} else {
			i := rng.Intn(len(live))
			a.Free(live[i].addr, live[i].size)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for i := range live {
		for j := i + 1; j < len(live); j++ {
			x, y := live[i], live[j]
			if x.addr < y.addr+y.reserved && y.addr < x.addr+x.reserved {
				t.Fatalf("reserved extents overlap: %+v %+v", x, y)
			}
		}
	}
}

func TestBitsetNextSet(t *testing.T) {
	b := make(Bitset, BitsetWords(300))
	if got := b.NextSet(0); got != -1 {
		t.Fatalf("NextSet on empty = %d, want -1", got)
	}
	for _, i := range []int{3, 64, 130, 299} {
		b.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 130}, {131, 299}, {299, 299}, {300, -1}, {-5, 3},
	}
	for _, tc := range cases {
		if got := b.NextSet(tc.from); got != tc.want {
			t.Errorf("NextSet(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
}
