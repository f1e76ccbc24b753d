package heap

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestCompactScripted is the exhaustion Compact exists for, step by
// step with the exact Info after each (gostore's arena tests are the
// model): a 4 KiB arena of sixteen 256-byte pages is filled with 24-byte
// objects, ten to a page; all but the first object on each page die,
// leaving 9 % occupancy and no free page; a 32-byte request then fails,
// since its class has no slab and no page is left to make one. Compact
// packs the sixteen survivors into pages 0 and 1 in id order, and the
// request succeeds on page 2.
func TestCompactScripted(t *testing.T) {
	h := New(4096)
	small := h.DefineClass(Class{Name: "Small", Data: 16}) // 24 B
	big := h.DefineClass(Class{Name: "Big", Data: 24})     // 32 B
	step := func(what string, want Info) {
		t.Helper()
		if got := h.Arena().Info(); got != want {
			t.Fatalf("%s: Info %+v, want %+v", what, got, want)
		}
		if err := h.Arena().checkInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if ps := h.Arena().PageSize(); ps != 256 {
		t.Fatalf("page size %d, want 256", ps)
	}
	var ids []HandleID
	for {
		id, err := h.Alloc(small, 0)
		if err != nil {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != 160 {
		t.Fatalf("%d objects of 24 B fit, want 160", len(ids))
	}
	// 16 B of each page is too short for an eleventh block.
	step("filled", Info{Capacity: 4096, HeapBytes: 4096, AllocBytes: 3840, Overhead: 256})
	for i, id := range ids {
		if i%10 != 0 {
			h.Free(id)
		}
	}
	step("one survivor a page", Info{Capacity: 4096, HeapBytes: 4096, AllocBytes: 384, Overhead: 256})
	if _, err := h.Alloc(big, 0); err != ErrOutOfMemory {
		t.Fatalf("32 B at 9 %% occupancy before Compact: %v, want ErrOutOfMemory", err)
	}
	if !h.Compact() {
		t.Fatal("Compact refused")
	}
	// Ten survivors fill page 0 and six sit on page 1: four free blocks
	// and two pages' 16 B tails.
	step("compacted", Info{Capacity: 4096, HeapBytes: 512, AllocBytes: 384, Overhead: 32})
	for k := 0; k < 16; k++ {
		id := ids[10*k]
		if want := k/10*256 + k%10*24; h.AddrOf(id) != want {
			t.Fatalf("survivor %d (id %d) at %d after Compact, want %d", k, id, h.AddrOf(id), want)
		}
	}
	id, err := h.Alloc(big, 0)
	if err != nil {
		t.Fatalf("32 B after Compact: %v", err)
	}
	if h.AddrOf(id) != 512 {
		t.Fatalf("32 B object at %d, want page 2 (512)", h.AddrOf(id))
	}
	step("32 B placed", Info{Capacity: 4096, HeapBytes: 768, AllocBytes: 416, Overhead: 32})
	if h.Stats().Compactions != 1 || h.Stats().FailedAlloc != 2 {
		t.Fatalf("stats %+v, want 1 compaction and 2 failed allocations", h.Stats())
	}
}

// compactor is Compact or a mutant of it, for the checker's own test.
type compactor func(h *Heap) bool

// checkCompacted runs compact on h and checks the placement rule and
// what it buys. With an arena of whole pages, after Compact:
//   - every live object sits where a fresh arena puts the live sizes
//     allocated in ascending id order, and the arena's invariants hold;
//   - HeapBytes is the fewest pages the live set can take: per small
//     class, its objects over the blocks a page holds, rounded up, and
//     per large object its own pages;
//   - a request of size s succeeds exactly when its class has a partial
//     slab or enough free pages remain for it, probed on a copy.
func checkCompacted(h *Heap, compact compactor) error {
	if !compact(h) {
		return fmt.Errorf("compaction refused")
	}
	a := h.Arena()
	if err := a.checkInvariants(); err != nil {
		return err
	}
	ref := NewArena(a.Size())
	ps := a.PageSize()
	perClass := map[int]int{}
	pages := 0
	var err error
	h.ForEachLive(func(id HandleID) {
		size := h.SizeOf(id)
		want, _ := ref.Alloc(size)
		if got := h.AddrOf(id); got != want && err == nil {
			err = fmt.Errorf("id %d (%d B) at %d, the id-order placement puts it at %d", id, size, got, want)
		}
		if r := align(size); r <= ps {
			perClass[r]++
		} else {
			pages += (size + ps - 1) / ps
		}
	})
	if err != nil {
		return err
	}
	for r, n := range perClass {
		per := ps / r
		pages += (n + per - 1) / per
	}
	if got := a.Info().HeapBytes; got != pages*ps {
		return fmt.Errorf("HeapBytes %d after Compact, the live set needs %d pages of %d", got, pages, ps)
	}
	freePages := a.Size()/ps - pages
	for _, s := range []int{8, 24, 32, 64, 120, 208, ps, ps + 8, 3 * ps} {
		probe := a.clone()
		_, aerr := probe.Alloc(s)
		probe.Release()
		need := (s + ps - 1) / ps
		want := need <= freePages
		if r := align(s); r <= ps {
			per := ps / r
			want = perClass[r]%per != 0 || freePages > 0
		}
		if got := aerr == nil; got != want {
			return fmt.Errorf("a %d B request after Compact succeeds = %v, want %v (%d free pages)", s, got, want, freePages)
		}
	}
	return nil
}

// clone returns a fresh arena in a's state, on tables of its own, for a
// probe that must leave a as it is.
func (a *Arena) clone() *Arena {
	c := NewArena(a.size)
	c.slabs = append(c.slabs, a.slabs...)
	copy(c.partial, a.partial)
	copy(c.cached, a.cached)
	c.freePages = append(c.freePages[:0], a.freePages...)
	c.cachedN, c.maxRun, c.shortFree = a.cachedN, a.maxRun, a.shortFree
	c.allocBytes, c.heapBytes, c.freeListBytes = a.allocBytes, a.heapBytes, a.freeListBytes
	c.reclaims = a.reclaims
	return c
}

// fragment drives a random alloc/free script over objects of eight
// sizes, two of them wider than a 256-byte page, then frees about
// three in four of the survivors.
func fragment(seed int64) *Heap {
	h := New(1 << 16) // 256 pages of 256 B
	var classes []ClassID
	for _, d := range []int{8, 16, 24, 56, 112, 200, 600, 1500} {
		classes = append(classes, h.DefineClass(Class{Name: fmt.Sprint("C", d), Data: d}))
	}
	rng := rand.New(rand.NewSource(seed))
	var live []HandleID
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			j := rng.Intn(len(live))
			h.Free(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		c := classes[rng.Intn(len(classes))]
		if rng.Intn(8) != 0 { // mostly small
			c = classes[rng.Intn(6)]
		}
		if id, err := h.Alloc(c, 0); err == nil {
			live = append(live, id)
		}
	}
	for _, id := range live {
		if rng.Intn(4) != 0 {
			h.Free(id)
		}
	}
	return h
}

func TestCompactPlacesTheLiveSetMinimally(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if err := checkCompacted(fragment(seed), (*Heap).Compact); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCompactCheckerCatchesMutants: a compaction that moves nothing, and
// one that places the live set in descending id order, both fail the
// checker on the scripts the property passes on.
func TestCompactCheckerCatchesMutants(t *testing.T) {
	noop := func(h *Heap) bool { return true }
	descending := func(h *Heap) bool {
		var ids []HandleID
		h.ForEachLive(func(id HandleID) { ids = append(ids, id) })
		a := NewArena(h.Arena().Size())
		for i := len(ids) - 1; i >= 0; i-- {
			addr, err := a.Alloc(h.SizeOf(ids[i]))
			if err != nil {
				return false
			}
			h.handles[int(ids[i])].addr = int32(addr)
		}
		h.arena.Release()
		h.arena = a
		return true
	}
	for name, m := range map[string]compactor{"no-op": noop, "descending": descending} {
		caught := false
		for seed := int64(1); seed <= 40 && !caught; seed++ {
			caught = checkCompacted(fragment(seed), m) != nil
		}
		if !caught {
			t.Errorf("the checker passes the %s mutant", name)
		}
	}
}

// TestCompactedArenaOutlivesTheScratch: Compact commits the arena it
// placed the live set in by swapping the heap's pointer to it. A copy of
// that arena into the old one would carry its tables, whose cleanups
// stay registered on the scratch arena: once collections find the
// scratch unreachable they unmap the tables the heap still allocates
// from, and the next allocation faults.
func TestCompactedArenaOutlivesTheScratch(t *testing.T) {
	// settle runs the two collections that find a dropped arena and
	// waits, up to a second, until the cleanups they queue (which run on
	// a goroutine of their own) bring the gauge down to want or, for
	// want < 0, until it stops falling.
	settle := func(want int64) int64 {
		runtime.GC()
		runtime.GC()
		n := mappings.Load()
		for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
			m := mappings.Load()
			if want < 0 && m == n {
				break
			}
			n = m
		}
		return n
	}
	h := fragment(1)
	held := settle(-1) // earlier tests' garbage unmapped
	if !h.Compact() {
		t.Fatal("Compact refused")
	}
	if got := settle(held); got != held {
		t.Errorf("the compacted heap holds %d mappings, %d before Compact", got, held)
	}
	c := h.DefineClass(Class{Name: "After", Data: 40})
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(c, 0); err != nil {
			t.Fatalf("allocation %d after Compact: %v", i, err)
		}
	}
	if err := h.Arena().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
