package heap

import (
	"math/rand"
	"testing"
)

// slabModel is the reference semantics the slab-backed heap must match:
// the old per-handle-slice behavior, kept as plain Go maps. Every
// observable — GetRef, SetRef, Refs, NumRefSlots, Live — must agree
// after any operation sequence.
type slabModel struct {
	refs map[HandleID][]HandleID // live handles only
}

func (m *slabModel) alloc(id HandleID, nrefs int) {
	m.refs[id] = make([]HandleID, nrefs)
}

func (m *slabModel) free(id HandleID) { delete(m.refs, id) }

// TestSlabMatchesPerSliceModel drives randomized Alloc / Free / Reinit
// / SetRef sequences and checks the slab-backed ref storage against the
// reference model after every step. This is the property the slab
// refactor must preserve: extent sharing and recycling are invisible —
// no stale value from a previous occupant of an extent may ever leak
// into a fresh object's slots. One array in eight is long, with lengths
// on both sides of extHeads, so extents are also recycled across the
// lengths of a capacity class.
func TestSlabMatchesPerSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := New(1 << 20)
	classes := []ClassID{
		h.DefineClass(Class{Name: "N0", Refs: 0, Data: 8}),
		h.DefineClass(Class{Name: "N1", Refs: 1, Data: 8}),
		h.DefineClass(Class{Name: "N3", Refs: 3, Data: 16}),
		h.DefineClass(Class{Name: "Arr", Refs: 0, Data: 0, IsArray: true}),
	}
	nrefsOf := func(c ClassID, extra int) int { return h.ClassDef(c).Refs + extra }
	extraOf := func(c ClassID) int {
		switch {
		case !h.ClassDef(c).IsArray:
			return 0
		case rng.Intn(8) == 0:
			return extHeads - 24 + rng.Intn(160)
		}
		return rng.Intn(6)
	}

	model := &slabModel{refs: make(map[HandleID][]HandleID)}
	var live []HandleID

	check := func(step int) {
		t.Helper()
		if got, want := h.NumLive(), len(model.refs); got != want {
			t.Fatalf("step %d: NumLive = %d, model has %d", step, got, want)
		}
		for id, want := range model.refs {
			if !h.Live(id) {
				t.Fatalf("step %d: model-live handle %d dead in heap", step, id)
			}
			if got := h.NumRefSlots(id); got != len(want) {
				t.Fatalf("step %d: NumRefSlots(%d) = %d, want %d", step, id, got, len(want))
			}
			for i, w := range want {
				if got := h.GetRef(id, i); got != w {
					t.Fatalf("step %d: GetRef(%d,%d) = %d, want %d", step, id, i, got, w)
				}
			}
			// Refs must visit exactly the non-nil slots in order.
			var visited []HandleID
			h.Refs(id, func(r HandleID) { visited = append(visited, r) })
			var wantVisit []HandleID
			for _, w := range want {
				if w != Nil {
					wantVisit = append(wantVisit, w)
				}
			}
			if len(visited) != len(wantVisit) {
				t.Fatalf("step %d: Refs(%d) visited %v, want %v", step, id, visited, wantVisit)
			}
			for i := range visited {
				if visited[i] != wantVisit[i] {
					t.Fatalf("step %d: Refs(%d) visited %v, want %v", step, id, visited, wantVisit)
				}
			}
		}
	}

	randLive := func() HandleID { return live[rng.Intn(len(live))] }
	removeLive := func(id HandleID) {
		for i, o := range live {
			if o == id {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return
			}
		}
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // alloc
			ci := rng.Intn(len(classes))
			c := classes[ci]
			extra := extraOf(c)
			id, err := h.Alloc(c, extra)
			if err != nil {
				t.Fatalf("step %d: alloc: %v", step, err)
			}
			model.alloc(id, nrefsOf(c, extra))
			live = append(live, id)
		case op < 6: // free
			id := randLive()
			h.Free(id)
			model.free(id)
			removeLive(id)
		case op < 7: // reinit (recycling path): any class that fits
			id := randLive()
			ci := rng.Intn(len(classes))
			c := classes[ci]
			extra := extraOf(c)
			if InstanceSize(h.ClassDef(c), extra) > h.SizeOf(id) {
				continue
			}
			if err := h.Reinit(id, c, extra); err != nil {
				t.Fatalf("step %d: reinit: %v", step, err)
			}
			model.alloc(id, nrefsOf(c, extra))
		default: // setref
			id := randLive()
			n := h.NumRefSlots(id)
			if n == 0 {
				continue
			}
			slot := rng.Intn(n)
			val := Nil
			if rng.Intn(3) > 0 {
				val = randLive()
			}
			h.SetRef(id, slot, val)
			model.refs[id][slot] = val
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(5000)
}

// TestHeapResetObservablyFresh checks the reset-shard contract: after
// Reset, a heap behaves exactly like heap.New of the same arena size —
// same handle IDs, same addresses, same zeroed slots — though the slab
// and tables held a previous run's bytes, which went with the mappings
// Reset released: a 100-object cell and a 1000-object one.
func TestHeapResetObservablyFresh(t *testing.T) {
	run := func(h *Heap, n int) (ids []HandleID, addrs []int, vals []HandleID) {
		cls := h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
		arr := h.DefineClass(Class{Name: "Arr", IsArray: true})
		for i := 0; i < n; i++ {
			id, err := h.Alloc(cls, 0)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			addrs = append(addrs, h.AddrOf(id))
		}
		a, err := h.Alloc(arr, 7)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a)
		for i := 0; i < n/2; i += 2 {
			h.SetRef(ids[i], 1, ids[i+1])
			h.Free(ids[i+n/2])
		}
		for i := 0; i < n/2; i++ {
			vals = append(vals, h.GetRef(ids[i], 0), h.GetRef(ids[i], 1))
		}
		return ids, addrs, vals
	}

	reused := New(1 << 20)
	run(reused, 100) // dirty it
	// The first cell fits the capacity the dirty run was granted; the
	// second grows the handle table, live bitmap and slab past it, so
	// both the retained capacity and what lies beyond it — reallocated,
	// or further into the mapping — are checked for stale contents.
	for _, n := range []int{100, 1000} {
		fresh := New(1 << 20)
		wantIDs, wantAddrs, wantVals := run(fresh, n)

		granted := reused.HandleCap()
		reused.Reset()
		if reused.NumLive() != 0 || reused.Arena().InUse() != 0 || reused.NumHandles() != 1 || reused.HandleCap() != 1 {
			t.Fatalf("Reset left residue: live=%d inUse=%d handles=%d cap=%d",
				reused.NumLive(), reused.Arena().InUse(), reused.NumHandles(), reused.HandleCap())
		}
		gotIDs, gotAddrs, gotVals := run(reused, n)
		if grew := reused.HandleCap() > granted; grew != (n > 100) {
			t.Fatalf("n=%d: granted handle capacity %d -> %d, want growth past the first cell's only for the large cell", n, granted, reused.HandleCap())
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("n=%d handle %d: id %d after Reset, %d fresh", n, i, gotIDs[i], wantIDs[i])
			}
		}
		for i := range wantAddrs {
			if gotAddrs[i] != wantAddrs[i] {
				t.Fatalf("n=%d handle %d: addr %d after Reset, %d fresh", n, i, gotAddrs[i], wantAddrs[i])
			}
		}
		for i := range wantVals {
			if gotVals[i] != wantVals[i] {
				t.Fatalf("n=%d val %d: %d after Reset, %d fresh", n, i, gotVals[i], wantVals[i])
			}
		}
		if got := reused.Stats(); got != fresh.Stats() {
			t.Fatalf("n=%d: stats after Reset = %+v, fresh = %+v", n, got, fresh.Stats())
		}
		if reused.HandleCap() != fresh.HandleCap() || reused.NumHandles() != fresh.NumHandles() {
			t.Fatalf("n=%d: reused table %d/%d, fresh %d/%d: a reset heap must grow in a fresh one's steps",
				n, reused.NumHandles(), reused.HandleCap(), fresh.NumHandles(), fresh.HandleCap())
		}
	}
}

// TestSteadyChurnCarvesNothing: a steady churn of a fixed mix of object
// shapes — every round allocates the same objects, writes their slots
// and frees them all in a random order — carves the slab in its first
// round and never again: each freed extent waits on the list for its
// length, which the next round's allocation of that length pops, in
// whatever handle slot it lands. Among the shapes is an array longer
// than extHeads.
func TestSteadyChurnCarvesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New(1 << 20)
	type shape struct {
		c     ClassID
		extra int
	}
	arr := h.DefineClass(Class{Name: "Arr", IsArray: true})
	shapes := []shape{
		{h.DefineClass(Class{Name: "N0", Data: 8}), 0},
		{h.DefineClass(Class{Name: "N1", Refs: 1, Data: 8}), 0},
		{h.DefineClass(Class{Name: "N3", Refs: 3, Data: 16}), 0},
		{h.DefineClass(Class{Name: "N7", Refs: 7}), 0},
		{arr, 2}, {arr, 10}, {arr, 100}, {arr, 2000},
	}
	var ids []HandleID
	carved := 0
	for round := 0; round < 30; round++ {
		ids = ids[:0]
		for i := 0; i < 60; i++ {
			s := shapes[i%len(shapes)]
			id, err := h.Alloc(s.c, s.extra)
			if err != nil {
				t.Fatal(err)
			}
			for j := range h.NumRefSlots(id) {
				h.SetRef(id, j, id)
			}
			ids = append(ids, id)
		}
		if round == 0 {
			carved = len(h.slab)
		} else if len(h.slab) != carved {
			t.Fatalf("round %d: slab at %d slots, %d after the first round", round, len(h.slab), carved)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			h.Free(id)
		}
	}
}

// TestLongExtentsRecycleByClass: a churn of one long array at a time,
// of a random length from 1024 to 8191 slots, carves at most one extent
// per capacity class — 25 classes, none of them more than an eighth
// longer than any length it serves, each carved on a 16-slot boundary —
// and, once each class has carved its extent, nothing more.
func TestLongExtentsRecycleByClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(1 << 20)
	arr := h.DefineClass(Class{Name: "Arr", IsArray: true})
	spans := map[int]int{} // list -> span
	bound := 1             // slot 0
	for n := extHeads; n < 8192; n++ {
		list, span := extList(n)
		if span < n || span > n+n/8 || list < extHeads || list >= extLists {
			t.Fatalf("extList(%d) = %d, %d", n, list, span)
		}
		if s, ok := spans[list]; ok && s != span {
			t.Fatalf("list %d spans %d and %d", list, s, span)
		} else if !ok {
			spans[list] = span
			bound += 15 + span
		}
	}
	if len(spans) != 25 {
		t.Fatalf("%d classes between 1024 and 8191 slots, want 25", len(spans))
	}
	var settled int
	for i := 0; i < 4000; i++ {
		id, err := h.Alloc(arr, extHeads+rng.Intn(8192-extHeads))
		if err != nil {
			t.Fatal(err)
		}
		h.SetRef(id, h.NumRefSlots(id)-1, id)
		h.Free(id)
		if i == 2000 {
			settled = len(h.slab)
		}
	}
	if len(h.slab) > bound || len(h.slab) != settled {
		t.Fatalf("slab at %d slots, %d after 2000 rounds; one extent per class is %d", len(h.slab), settled, bound)
	}
}
