package heap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpanArenaAllocFree(t *testing.T) {
	a := NewSpanArena(1024)
	if a.FreeBytes() != 1024 || a.InUse() != 0 {
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
	a.Free(p1, 128)
	a.Free(p2, 256)
	if a.FreeBytes() != 1024 || a.FreeSpans() != 1 {
		t.Fatalf("free did not coalesce back to one span: spans=%d free=%d", a.FreeSpans(), a.FreeBytes())
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanArenaExhaustion(t *testing.T) {
	a := NewSpanArena(256)
	if _, err := a.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestSpanArenaFirstFitFromCursor(t *testing.T) {
	a := NewSpanArena(1000)
	// Carve three blocks; the cursor now sits at 300. Free block 1: the
	// allocator must NOT reuse its hole (it is behind the cursor) while
	// untouched space remains ahead.
	p1, _ := a.Alloc(100)
	if _, err := a.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(100); err != nil {
		t.Fatal(err)
	}
	a.Free(p1, 100)
	got, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Fatalf("cursor policy: expected fresh space at 300, got %d", got)
	}
	// Exhaust the tail, then allocate again: the scan wraps and finds
	// block 1's hole ("forced to start its search at the beginning of
	// the heap", §4.8).
	if _, err := a.Alloc(600); err != nil {
		t.Fatal(err)
	}
	got2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != p1 {
		t.Fatalf("wrap-around: expected hole %d, got %d", p1, got2)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanArenaCoalesceMiddle(t *testing.T) {
	a := NewSpanArena(300)
	p1, _ := a.Alloc(100)
	p2, _ := a.Alloc(100)
	p3, _ := a.Alloc(100)
	a.Free(p1, 100)
	a.Free(p3, 100)
	if a.FreeSpans() != 2 {
		t.Fatalf("expected 2 spans, got %d", a.FreeSpans())
	}
	a.Free(p2, 100) // merges with both neighbours
	if a.FreeSpans() != 1 || a.LargestFree() != 300 {
		t.Fatalf("triple coalesce failed: spans=%d largest=%d", a.FreeSpans(), a.LargestFree())
	}
}

func TestSpanArenaDoubleFreePanics(t *testing.T) {
	a := NewSpanArena(128)
	p, _ := a.Alloc(64)
	a.Free(p, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p, 64)
}

// TestSpanArenaRandomized drives a random alloc/free workload and checks the
// structural invariants after every operation (DESIGN.md §8 "The ladder").
func TestSpanArenaRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := NewSpanArena(1 << 16)
	type ext struct{ addr, size int }
	var live []ext
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			size := 8 * (1 + rng.Intn(64))
			addr, err := a.Alloc(size)
			if err == nil {
				live = append(live, ext{addr, size})
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
	// Allocated extents must never overlap one another.
	for i := range live {
		for j := i + 1; j < len(live); j++ {
			x, y := live[i], live[j]
			if x.addr < y.addr+y.size && y.addr < x.addr+x.size {
				t.Fatalf("live extents overlap: %+v %+v", x, y)
			}
		}
	}
}

// TestSpanArenaFillDrain property: allocating until exhaustion and freeing
// everything restores a single maximal span (quick).
func TestSpanArenaFillDrain(t *testing.T) {
	check := func(sizes []uint8) bool {
		a := NewSpanArena(1 << 12)
		var exts [][2]int
		for _, s := range sizes {
			size := 8 * (1 + int(s)%32)
			addr, err := a.Alloc(size)
			if err != nil {
				break
			}
			exts = append(exts, [2]int{addr, size})
		}
		for _, e := range exts {
			a.Free(e[0], e[1])
		}
		return a.FreeSpans() == 1 && a.FreeBytes() == 1<<12 && a.checkInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func testHeap(t testing.TB) (*Heap, ClassID, ClassID) {
	h := New(1 << 16)
	node := h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
	arr := h.DefineClass(Class{Name: "Object[]", IsArray: true})
	return h, node, arr
}

func TestHeapAllocAndFields(t *testing.T) {
	h, node, _ := testHeap(t)
	a, err := h.Alloc(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Live(a) || !h.Live(b) || h.Live(Nil) {
		t.Fatal("liveness wrong after alloc")
	}
	if h.GetRef(a, 0) != Nil || h.GetRef(a, 1) != Nil {
		t.Fatal("fresh object fields not nil")
	}
	h.SetRef(a, 0, b)
	if h.GetRef(a, 0) != b {
		t.Fatal("SetRef/GetRef round trip failed")
	}
	var seen []HandleID
	h.Refs(a, func(r HandleID) { seen = append(seen, r) })
	if len(seen) != 1 || seen[0] != b {
		t.Fatalf("Refs visited %v, want [%d]", seen, b)
	}
}

func TestHeapArrays(t *testing.T) {
	h, node, arr := testHeap(t)
	v, err := h.Alloc(arr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumRefSlots(v) != 10 {
		t.Fatalf("array slots = %d, want 10", h.NumRefSlots(v))
	}
	e, _ := h.Alloc(node, 0)
	h.SetRef(v, 7, e)
	if h.GetRef(v, 7) != e {
		t.Fatal("array store/load failed")
	}
	if _, err := h.Alloc(node, 3); err == nil {
		t.Fatal("extra slots on non-array class must error")
	}
}

func TestHeapFreeRecyclesHandles(t *testing.T) {
	h, node, _ := testHeap(t)
	a, _ := h.Alloc(node, 0)
	sz := h.SizeOf(a)
	h.Free(a)
	if h.Live(a) {
		t.Fatal("freed object still live")
	}
	b, _ := h.Alloc(node, 0)
	if b != a {
		t.Fatalf("handle slot not recycled: got %d want %d", b, a)
	}
	if h.SizeOf(b) != sz {
		t.Fatal("recycled handle has wrong size")
	}
	if got := h.Stats().Frees; got != 1 {
		t.Fatalf("Frees = %d, want 1", got)
	}
}

func TestHeapOOMAndRecovery(t *testing.T) {
	h := New(64)
	c := h.DefineClass(Class{Name: "Big", Data: 40})
	a, err := h.Alloc(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(c, 0); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if h.Stats().FailedAlloc != 1 {
		t.Fatalf("FailedAlloc = %d, want 1", h.Stats().FailedAlloc)
	}
	h.Free(a)
	if _, err := h.Alloc(c, 0); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestHeapClassTable(t *testing.T) {
	h := New(1024)
	c1 := h.DefineClass(Class{Name: "A", Refs: 1})
	c2 := h.DefineClass(Class{Name: "A", Refs: 1}) // identical redefinition
	if c1 != c2 {
		t.Fatal("identical redefinition should return same ID")
	}
	if _, ok := h.ClassByName("A"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := h.ClassByName("missing"); ok {
		t.Fatal("phantom class")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting redefinition must panic")
		}
	}()
	h.DefineClass(Class{Name: "A", Refs: 2})
}

func TestInstanceSizeAlignment(t *testing.T) {
	cases := []struct {
		c     Class
		extra int
		want  int
	}{
		{Class{Refs: 0, Data: 0}, 0, 8},
		{Class{Refs: 1, Data: 0}, 0, 16},
		{Class{Refs: 2, Data: 8}, 0, 24},
		{Class{IsArray: true}, 3, 24}, // 8 + 12 -> 24
	}
	for _, tc := range cases {
		if got := InstanceSize(tc.c, tc.extra); got != tc.want {
			t.Errorf("InstanceSize(%+v,%d) = %d, want %d", tc.c, tc.extra, got, tc.want)
		}
	}
}

func TestDanglingAccessPanics(t *testing.T) {
	h, node, _ := testHeap(t)
	a, _ := h.Alloc(node, 0)
	h.Free(a)
	defer func() {
		if recover() == nil {
			t.Fatal("dangling GetRef must panic")
		}
	}()
	h.GetRef(a, 0)
}

// panicText runs fn and returns what it panicked with ("" if it
// returned).
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestFreeSlotListIsLIFOThroughTheSlots pins the free-handle list that
// lives in the dead slots' addr words: ids come back newest-freed first,
// interleaved frees and allocations keep that order, a slot on the list
// is as dead as before (every accessor and a second Free panic with the
// dangling message, Nil with the null one), and Reset empties the list.
func TestFreeSlotListIsLIFOThroughTheSlots(t *testing.T) {
	h, node, _ := testHeap(t)
	alloc := func() HandleID {
		t.Helper()
		id, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b, c, d := alloc(), alloc(), alloc(), alloc()
	h.Free(a)
	h.Free(b)
	h.Free(c)
	for _, id := range []HandleID{a, b, c} {
		if h.Live(id) {
			t.Fatalf("freed handle %d reads live", id)
		}
		want := fmt.Sprintf("heap: dangling handle %d", id)
		for what, fn := range map[string]func(){
			"SizeOf": func() { h.SizeOf(id) },
			"AddrOf": func() { h.AddrOf(id) },
			"GetRef": func() { h.GetRef(id, 0) },
			"Free":   func() { h.Free(id) },
		} {
			if got := panicText(fn); got != want {
				t.Fatalf("%s of freed handle %d panicked with %q, want %q", what, id, got, want)
			}
		}
	}
	if h.Live(Nil) {
		t.Fatal("Nil reads live")
	}
	if got := panicText(func() { h.SizeOf(Nil) }); got != "heap: null handle dereference" {
		t.Fatalf("SizeOf(Nil) panicked with %q", got)
	}
	if got := panicText(func() { h.Free(Nil) }); got != "heap: null handle dereference" {
		t.Fatalf("Free(Nil) panicked with %q", got)
	}
	if got := []HandleID{alloc(), alloc()}; got[0] != c || got[1] != b {
		t.Fatalf("after freeing %d %d %d, allocations returned %v, want %d then %d", a, b, c, got, c, b)
	}
	h.Free(d) // pushed above a, which is still listed
	if got := []HandleID{alloc(), alloc()}; got[0] != d || got[1] != a {
		t.Fatalf("allocations returned %v, want %d then %d", got, d, a)
	}
	if e := alloc(); e != d+1 {
		t.Fatalf("with the list empty the next id is %d, want the fresh slot %d", e, d+1)
	}
	if h.NumLive() != 5 || h.Stats().Frees != 4 {
		t.Fatalf("%d live after %d frees, want 5 and 4", h.NumLive(), h.Stats().Frees)
	}

	h.Free(b)
	h.Free(c)
	h.Reset()
	node = h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
	for want := HandleID(1); want <= 3; want++ {
		if id := alloc(); id != want {
			t.Fatalf("after Reset the heap handed out %d, want the fresh slot %d", id, want)
		}
	}
}

// TestBirthOrder: the handle carries no allocation sequence number (a
// caller that needs one stamps its own allocations); what the heap does
// promise is that fresh slots are handed out in allocation order and a
// freed slot is the next one reused.
func TestBirthOrder(t *testing.T) {
	h, node, _ := testHeap(t)
	a, _ := h.Alloc(node, 0)
	b, _ := h.Alloc(node, 0)
	if !(a < b) {
		t.Fatalf("fresh handles not in allocation order: %d then %d", a, b)
	}
	h.Free(a)
	if c, _ := h.Alloc(node, 0); c != a {
		t.Fatalf("freed slot %d not reused first: got %d", a, c)
	}
}

func BenchmarkHeapAllocFree(b *testing.B) {
	h := New(1 << 20)
	c := h.DefineClass(Class{Name: "N", Refs: 2, Data: 8})
	b.ReportAllocs()
	b.ResetTimer()
	ids := make([]HandleID, 0, 1024)
	for i := 0; i < b.N; i++ {
		id, err := h.Alloc(c, 0)
		if err != nil {
			for _, x := range ids {
				h.Free(x)
			}
			ids = ids[:0]
			id, err = h.Alloc(c, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
}

// TestLiveBitmapMirrorsHandles pins the live-bitmap invariant the
// word-at-a-time sweep depends on: bit i of LiveWords is set exactly
// when handle i is live, across alloc, free, handle recycling and
// Reset (including regrowth into retained capacity, which must never
// surface stale bits).
func TestLiveBitmapMirrorsHandles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, node, _ := testHeap(t)
	check := func(when string) {
		t.Helper()
		lw := h.LiveWords()
		if want := BitsetWords(h.NumHandles()); len(lw) != want {
			t.Fatalf("%s: LiveWords len %d, want %d for cap %d", when, len(lw), want, h.NumHandles())
		}
		n := 0
		for i := 0; i < h.NumHandles(); i++ {
			id := HandleID(i)
			if lw.Has(i) != h.Live(id) {
				t.Fatalf("%s: bit %d = %v, Live = %v", when, i, lw.Has(i), h.Live(id))
			}
			if h.Live(id) {
				n++
			}
		}
		if h.NumLive() != n {
			t.Fatalf("%s: NumLive = %d, manual count %d", when, h.NumLive(), n)
		}
		var visited []HandleID
		h.ForEachLive(func(id HandleID) { visited = append(visited, id) })
		if len(visited) != n {
			t.Fatalf("%s: ForEachLive visited %d, want %d", when, len(visited), n)
		}
		for i := 1; i < len(visited); i++ {
			if visited[i-1] >= visited[i] {
				t.Fatalf("%s: ForEachLive out of order at %d", when, i)
			}
		}
	}
	var ids []HandleID
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			id, err := h.Alloc(node, 0)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		check("after allocs")
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids[:len(ids)/2] {
			h.Free(id)
		}
		ids = ids[len(ids)/2:]
		check("after frees")
	}
	h.Reset()
	node = h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
	check("after reset")
	if _, err := h.Alloc(node, 0); err != nil {
		t.Fatal(err)
	}
	check("after reset+alloc")
	ids = ids[:0]
}
