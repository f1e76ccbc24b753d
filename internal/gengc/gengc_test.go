package gengc

import (
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

func newRT(arena int) (*vm.Runtime, *System, heap.ClassID) {
	h := heap.New(arena)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	g := New()
	rt := vm.New(h, g)
	return rt, g, node
}

func TestMinorCollectsYoungGarbage(t *testing.T) {
	rt, g, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	keep := f.MustNew(node)
	f.SetLocal(0, keep)
	th.CallVoid(0, func(inner *vm.Frame) {
		for i := 0; i < 20; i++ {
			inner.MustNew(node) // dropped on the floor
		}
	})
	freed := g.Collect()
	if freed != 20 {
		t.Fatalf("freed %d, want 20", freed)
	}
	if !rt.Heap.Live(keep) {
		t.Fatal("rooted young object swept")
	}
	if g.Stats().Minor == 0 {
		t.Fatal("no minor cycle recorded")
	}
}

func TestSurvivorsPromote(t *testing.T) {
	rt, g, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	keep := f.MustNew(node)
	f.SetLocal(0, keep)
	for i := 0; i < PromoteAfter; i++ {
		g.Collect()
	}
	if g.flags[int(keep)]&flagOld == 0 {
		t.Fatalf("object not promoted after %d survivals", PromoteAfter)
	}
	if g.Stats().Promoted == 0 {
		t.Fatal("promotion counter untouched")
	}
	_ = rt
}

// TestRememberedSetKeepsYoungAlive is the classic generational hazard:
// an old object is the only referent of a young one. Without the write
// barrier the minor collection would sweep the young object.
func TestRememberedSetKeepsYoungAlive(t *testing.T) {
	rt, g, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	oldObj := f.MustNew(node)
	f.SetLocal(0, oldObj)
	for i := 0; i < PromoteAfter; i++ {
		g.Collect()
	}
	if g.flags[int(oldObj)]&flagOld == 0 {
		t.Fatal("setup: object not tenured")
	}
	var young heap.HandleID
	th.CallVoid(0, func(inner *vm.Frame) {
		young = inner.MustNew(node)
		inner.PutField(oldObj, 0, young) // old -> young edge, via write barrier
	})
	// The young object has no root other than the old object's field.
	g.minor()
	if !rt.Heap.Live(young) {
		t.Fatal("minor collection swept a remembered-set-reachable object")
	}
	// Cut the edge: now it must die.
	f.PutField(oldObj, 0, heap.Nil)
	g.minor()
	if rt.Heap.Live(young) {
		t.Fatal("unreachable young object survived")
	}
}

func TestMajorCollectsOldGarbage(t *testing.T) {
	rt, g, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	o := f.MustNew(node)
	f.SetLocal(0, o)
	for i := 0; i < PromoteAfter; i++ {
		g.Collect()
	}
	f.SetLocal(0, heap.Nil) // tenured garbage: only a major pass finds it
	f.Forget(o)             // drop the JNI-style local reference too
	if g.minor() != 0 {
		t.Fatal("minor collection touched the old generation")
	}
	if rt.Heap.Live(o) {
		if g.major() == 0 {
			t.Fatal("major collection missed tenured garbage")
		}
	}
	if rt.Heap.Live(o) {
		t.Fatal("tenured garbage survived a major collection")
	}
}

// TestGenerationalExactnessOracle: after a full Collect escalation the
// survivor set equals exact reachability (majors are exact; minors are
// conservative only across generations).
func TestGenerationalExactnessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rt, g, node := newRT(1 << 18)
	th := rt.NewThread(4)
	f := th.Top()
	var objs []heap.HandleID
	for round := 0; round < 5; round++ {
		// Each round's graph is built in a nested frame so operand
		// roots die with it; survivors hang off the outer locals.
		th.CallVoid(0, func(inner *vm.Frame) {
			for i := 0; i < 100; i++ {
				objs = append(objs, inner.MustNew(node))
			}
			for i := 0; i < 150; i++ {
				live := objs[:0]
				for _, o := range objs {
					if rt.Heap.Live(o) {
						live = append(live, o)
					}
				}
				objs = live
				if len(objs) < 2 {
					break
				}
				inner.PutField(objs[rng.Intn(len(objs))], rng.Intn(2), objs[rng.Intn(len(objs))])
			}
			for i := 0; i < 4; i++ {
				if len(objs) > 0 {
					f.SetLocal(i, objs[rng.Intn(len(objs))])
				}
			}
		})
		g.Collect()
	}
	// Force a major pass, then compare against the oracle.
	g.major()
	reach := make([]bool, rt.Heap.NumHandles())
	reached := 0
	var queue []heap.HandleID
	push := func(id heap.HandleID) {
		if id != heap.Nil && !reach[id] {
			reach[id] = true
			reached++
			queue = append(queue, id)
		}
	}
	rt.EachRootFrame(func(_ *vm.Frame, roots []heap.HandleID) {
		for _, r := range roots {
			push(r)
		}
	})
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		rt.Heap.Refs(id, push)
	}
	if rt.Heap.NumLive() != reached {
		t.Fatalf("live %d != reachable %d after major", rt.Heap.NumLive(), reached)
	}
}

// TestMinorExactnessOracle: a minor collection frees exactly the young
// objects that no path through young objects reaches from the roots or
// from a remembered object's referents, and no old object. The oracle
// is a BFS that shares no code with the engine; on the way it checks
// the write barrier's invariant, that every live old object holding a
// reference to a young one is remembered. Rounds of fresh objects and
// random stores — old→young among them, once objects tenure — run
// between the checked minors, and every other round a full Collect
// escalates when the yield is poor, so majors rebuild the set too.
func TestMinorExactnessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	rt, g, node := newRT(1 << 18)
	h := rt.Heap
	th := rt.NewThread(4)
	f := th.Top()
	var objs []heap.HandleID
	checked := 0
	for round := 0; round < 12; round++ {
		th.CallVoid(0, func(inner *vm.Frame) {
			for i := 0; i < 60; i++ {
				objs = append(objs, inner.MustNew(node))
			}
			live := objs[:0]
			for _, o := range objs {
				if h.Live(o) {
					live = append(live, o)
				}
			}
			objs = live
			for i := 0; i < 120; i++ {
				inner.PutField(objs[rng.Intn(len(objs))], rng.Intn(2), objs[rng.Intn(len(objs))])
			}
			for i := 0; i < 4; i++ {
				f.SetLocal(i, objs[rng.Intn(len(objs))])
			}
		})

		old := func(id heap.HandleID) bool { return g.flags[int(id)]&flagOld != 0 }
		reach := make([]bool, h.NumHandles())
		var queue []heap.HandleID
		push := func(id heap.HandleID) {
			if id != heap.Nil && !old(id) && !reach[id] {
				reach[id] = true
				queue = append(queue, id)
			}
		}
		rt.EachRootFrame(func(_ *vm.Frame, roots []heap.HandleID) {
			for _, r := range roots {
				push(r)
			}
		})
		var olds []heap.HandleID
		for id := heap.HandleID(1); int(id) < h.NumHandles(); id++ {
			if !h.Live(id) || !old(id) {
				continue
			}
			olds = append(olds, id)
			remembered := g.flags[int(id)]&flagRemembered != 0
			h.Refs(id, func(dst heap.HandleID) {
				if !old(dst) && !remembered {
					t.Fatalf("round %d: old %d references young %d but is not remembered", round, id, dst)
				}
			})
			if remembered {
				h.Refs(id, push)
			}
		}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			h.Refs(id, push)
		}
		var garbage []heap.HandleID
		for id := heap.HandleID(1); int(id) < h.NumHandles(); id++ {
			if h.Live(id) && !old(id) && !reach[id] {
				garbage = append(garbage, id)
			}
		}

		if freed := g.minor(); freed != len(garbage) {
			t.Fatalf("round %d: minor freed %d, oracle says %d young objects unreachable", round, freed, len(garbage))
		}
		for _, id := range garbage {
			if h.Live(id) {
				t.Fatalf("round %d: unreachable young %d survived the minor", round, id)
			}
		}
		for id, r := range reach {
			if r && !h.Live(heap.HandleID(id)) {
				t.Fatalf("round %d: reachable young %d was freed", round, id)
			}
		}
		for _, id := range olds {
			if !h.Live(id) {
				t.Fatalf("round %d: the minor freed old %d", round, id)
			}
		}
		if len(olds) > 0 && len(g.remembered) > 0 {
			checked++
		}
		if round%2 == 1 {
			g.Collect()
		}
	}
	if checked == 0 || g.Stats().Major == 0 {
		t.Fatalf("no checked minor ran with a remembered set (%d), or no major ran (%+v): the oracle is vacuous", checked, g.Stats())
	}
}

func TestHandleReuseResetsGeneration(t *testing.T) {
	rt, g, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	o := f.MustNew(node)
	f.SetLocal(0, o)
	for i := 0; i < PromoteAfter; i++ {
		g.Collect()
	}
	f.SetLocal(0, heap.Nil)
	f.Forget(o)
	g.major() // frees the tenured object, handle returns to the pool
	n := f.MustNew(node)
	if n != o {
		t.Skipf("heap did not reuse the handle (got %d, want %d)", n, o)
	}
	if g.flags[int(n)] != 0 {
		t.Fatal("recycled handle inherited its old-generation or remembered bit")
	}
}

// TestRememberedAcrossHandleReuse: a remembered old object dies in a
// major cycle and its handle comes back as a young object that is
// promoted and remembered again — the list holds the id once and the
// barrier counted both insertions. A handle freed outside a cycle
// leaves a stale entry behind; the next minor's compaction keeps one
// entry when the reused handle is remembered again, and none when it is
// not.
func TestRememberedAcrossHandleReuse(t *testing.T) {
	rt, g, node := newRT(1 << 16)
	th := rt.NewThread(2)
	f := th.Top()
	tenure := func(id heap.HandleID) {
		for g.flags[int(id)]&flagOld == 0 {
			g.minor()
		}
	}
	entries := func(id heap.HandleID) int {
		n := 0
		for _, r := range g.remembered {
			if r == id {
				n++
			}
		}
		return n
	}
	// rememberVia tenures id, then stores a fresh young object into it.
	rememberVia := func(id heap.HandleID) {
		f.SetLocal(0, id)
		tenure(id)
		f.PutField(id, 0, f.MustNew(node))
	}

	o := f.MustNew(node)
	rememberVia(o)
	if entries(o) != 1 || g.Stats().Remembered != 1 {
		t.Fatalf("setup: %d entries for %d, Remembered %d", entries(o), o, g.Stats().Remembered)
	}
	f.SetLocal(0, heap.Nil)
	f.Forget(o)
	g.major()
	if rt.Heap.Live(o) || entries(o) != 0 {
		t.Fatalf("major: live %v, %d entries for %d", rt.Heap.Live(o), entries(o), o)
	}
	if n := f.MustNew(node); n != o {
		t.Fatalf("the free slot list did not hand back %d (got %d)", o, n)
	}
	rememberVia(o)
	g.minor()
	if entries(o) != 1 || g.Stats().Remembered != 2 {
		t.Fatalf("reused handle: %d entries for %d, Remembered %d, want 1 and 2",
			entries(o), o, g.Stats().Remembered)
	}

	// Out of band: the entry for o goes stale when its handle is reused,
	// and promote remembers the new object before any cycle compacts.
	rt.Heap.Free(o)
	if n := f.MustNew(node); n != o {
		t.Fatalf("the free slot list did not hand back %d (got %d)", o, n)
	}
	f.PutField(o, 0, f.MustNew(node))
	g.promote(o)
	if entries(o) != 2 {
		t.Fatalf("before compaction: %d entries for %d, want the stale one and the new one", entries(o), o)
	}
	g.minor()
	if entries(o) != 1 || g.flags[int(o)]&flagRemembered == 0 || g.Stats().Remembered != 3 {
		t.Fatalf("after compaction: %d entries for %d (flags %b), Remembered %d, want 1 and 3",
			entries(o), o, g.flags[int(o)], g.Stats().Remembered)
	}
	rt.Heap.Free(o)
	f.MustNew(node)
	g.minor()
	if entries(o) != 0 {
		t.Fatalf("a reused handle that is not remembered kept %d entries", entries(o))
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Minor: 2, Major: 1, FreedYoung: 9, FreedOld: 3, Promoted: 4, Remembered: 2}
	b := Stats{Minor: 1, Major: 0, FreedYoung: 1, FreedOld: 0, Promoted: 2, Remembered: 5}
	a.Merge(b)
	if a != (Stats{Minor: 3, Major: 1, FreedYoung: 10, FreedOld: 3, Promoted: 6, Remembered: 7}) {
		t.Fatalf("Stats.Merge = %+v", a)
	}
}
