package msa

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

func newRT(arena int) (*vm.Runtime, *System, heap.ClassID) {
	h := heap.New(arena)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	sys := NewSystem()
	rt := vm.New(h, sys)
	return rt, sys, node
}

// buildWorld constructs a randomized multi-thread object world: 1-3
// threads, each with a stack of 1-4 live frames holding locals and
// operand roots, a static slot, and a random edge set — then calls
// check while every frame is still live. Identical seeds build
// identical worlds (the RNG is the only entropy), which is what lets
// the equivalence test run a hook-free and a hooked cycle over twin
// runtimes.
func buildWorld(seed int64, arena int, check func(rt *vm.Runtime, sys *System, objs []heap.HandleID)) {
	rng := rand.New(rand.NewSource(seed))
	h := heap.New(arena)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 3, Data: 8})
	sys := NewSystem()
	rt := vm.New(h, sys)

	nThreads := 1 + rng.Intn(3)
	var objs []heap.HandleID
	slot := rt.StaticSlot("pin")

	// Frames must be live while check runs, so the world is built by
	// nesting: each thread deepens its stack recursively, then hands
	// off to the next thread; the innermost nesting level wires the
	// random edges and runs check.
	var finish func()
	var buildThread func(ti int)
	buildThread = func(ti int) {
		if ti == nThreads {
			finish()
			return
		}
		th := rt.NewThread(2)
		var deepen func(d int)
		deepen = func(d int) {
			f := th.Top()
			for i := 0; i < 2+rng.Intn(6); i++ {
				o := f.MustNew(node)
				objs = append(objs, o)
				if rng.Intn(2) == 0 {
					f.SetLocal(rng.Intn(2), o)
				}
				// Objects not stored to a local stay operand-rooted in
				// this frame; some are forgotten to create garbage.
				if rng.Intn(4) == 0 {
					f.Forget(o)
				}
			}
			if d > 0 {
				th.CallVoid(2, func(*vm.Frame) { deepen(d - 1) })
				return
			}
			buildThread(ti + 1)
		}
		deepen(rng.Intn(4))
	}
	finish = func() {
		f := rt.Threads()[0].Top()
		for i := 0; i < 2*len(objs); i++ {
			src := objs[rng.Intn(len(objs))]
			dst := objs[rng.Intn(len(objs))]
			f.PutField(src, rng.Intn(3), dst)
		}
		f.PutStatic(slot, objs[rng.Intn(len(objs))])
		check(rt, sys, objs)
	}
	buildThread(0)
}

func TestCollectFreesUnreachable(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	kept := f.MustNew(node)
	f.SetLocal(0, kept)
	// Garbage is made in a nested frame: handles handed to Go code are
	// rooted (JNI local-reference semantics) until their frame pops.
	th.CallVoid(0, func(g *vm.Frame) {
		for i := 0; i < 10; i++ {
			g.MustNew(node) // dropped on the floor
		}
	})
	freed := sys.Collect()
	if freed != 10 {
		t.Fatalf("freed %d, want 10", freed)
	}
	if !rt.Heap.Live(kept) {
		t.Fatal("rooted object was swept")
	}
}

func TestCollectTracesFieldChains(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	head := f.MustNew(node)
	f.SetLocal(0, head)
	// Build the chain in a nested frame so only the field links (not
	// local references) keep it alive once the frame pops.
	var all []heap.HandleID
	th.CallVoid(0, func(g *vm.Frame) {
		cur := head
		for i := 0; i < 20; i++ {
			n := g.MustNew(node)
			g.PutField(cur, 0, n)
			all = append(all, n)
			cur = n
		}
	})
	if freed := sys.Collect(); freed != 0 {
		t.Fatalf("freed %d reachable objects", freed)
	}
	for _, id := range all {
		if !rt.Heap.Live(id) {
			t.Fatal("chained object swept")
		}
	}
	// Cut the chain in the middle: the tail becomes garbage.
	f.PutField(all[9], 0, heap.Nil)
	if freed := sys.Collect(); freed != 10 {
		t.Fatalf("freed %d, want 10 (the severed tail)", freed)
	}
}

func TestCollectHandlesCycles(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	var a, b heap.HandleID
	th.CallVoid(0, func(g *vm.Frame) {
		a = g.MustNew(node)
		b = g.MustNew(node)
		g.PutField(a, 0, b)
		g.PutField(b, 0, a) // cycle
		f.SetLocal(0, a)    // rooted in the outer frame
	})
	if freed := sys.Collect(); freed != 0 {
		t.Fatal("rooted cycle swept")
	}
	f.SetLocal(0, heap.Nil)
	if freed := sys.Collect(); freed != 2 {
		t.Fatalf("unrooted cycle: freed %d, want 2", freed)
	}
	_ = rt
	_ = b
}

func TestStaticsAreRoots(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(0)
	f := th.Top()
	slot := rt.StaticSlot("pin")
	o := f.MustNew(node)
	f.PutStatic(slot, o)
	th.CallVoid(0, func(inner *vm.Frame) {
		inner.MustNew(node) // garbage
	})
	if freed := sys.Collect(); freed != 1 {
		t.Fatalf("freed %d, want 1", freed)
	}
	if !rt.Heap.Live(o) {
		t.Fatal("static-rooted object swept")
	}
}

// fromScan is the frame ID recordReached records for an object first
// reached from a Scan entry, which Reached reports with no frame.
const fromScan = ^uint64(0)

// recordReached returns a Cycle subscribing only Reached, recording
// first-visit attribution — the oldest-first property the resetting
// pass depends on.
func recordReached(firstFrame map[heap.HandleID]uint64) Cycle {
	return Cycle{Reached: func(id heap.HandleID, f *vm.Frame) {
		if _, ok := firstFrame[id]; ok {
			panic("Reached fired twice for one object")
		}
		firstFrame[id] = fromScan
		if f != nil {
			firstFrame[id] = f.ID
		}
	}}
}

func TestReachedAttributesOldestFrame(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(1)
	rootF := th.Top()
	shared := rootF.MustNew(node)
	rootF.SetLocal(0, shared)
	th.CallVoid(1, func(inner *vm.Frame) {
		inner.SetLocal(0, shared) // also referenced by the younger frame
		firstFrame := make(map[heap.HandleID]uint64)
		sys.Engine().Collect(recordReached(firstFrame))
		if got := firstFrame[shared]; got != rootF.ID {
			t.Fatalf("shared object attributed to frame %d, want oldest %d", got, rootF.ID)
		}
	})
}

func TestWillFreePrecedesFree(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(0)
	var victim heap.HandleID
	th.CallVoid(0, func(g *vm.Frame) { victim = g.MustNew(node) })
	liveAtHook := false
	cy := Cycle{WillFree: func(id heap.HandleID) {
		if id == victim {
			liveAtHook = rt.Heap.Live(id)
		}
	}}
	sys.Engine().Collect(cy)
	if !liveAtHook {
		t.Fatal("WillFree fired after the object was freed (or never)")
	}
	if rt.Heap.Live(victim) {
		t.Fatal("victim survived")
	}
}

// TestRandomGraphExactness builds a random object graph, computes an
// independent reachability oracle, and checks the collector frees exactly
// the unreachable objects — MSA is the exactness reference for CG's
// conservativeness experiments, so it must itself be exact.
func TestRandomGraphExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 20; trial++ {
		rt, sys, node := newRT(1 << 18)
		th := rt.NewThread(4)
		f := th.Top()
		slot := rt.StaticSlot("s")
		// Build the graph inside a nested frame so its operand roots
		// vanish when it pops; survivors are whatever the outer locals,
		// the static slot and the field graph still reach.
		var objs []heap.HandleID
		th.CallVoid(0, func(g *vm.Frame) {
			for i := 0; i < 200; i++ {
				objs = append(objs, g.MustNew(node))
			}
			for i := 0; i < 300; i++ {
				src := objs[rng.Intn(len(objs))]
				dst := objs[rng.Intn(len(objs))]
				g.PutField(src, rng.Intn(2), dst)
			}
			for i := 0; i < 4; i++ {
				f.SetLocal(i, objs[rng.Intn(len(objs))])
			}
			g.PutStatic(slot, objs[rng.Intn(len(objs))])
		})

		// Oracle: BFS from the same root enumeration the collector
		// uses (locals, operand references and statics).
		reach := make(map[heap.HandleID]bool)
		var queue []heap.HandleID
		push := func(id heap.HandleID) {
			if id != heap.Nil && !reach[id] {
				reach[id] = true
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
		_ = slot

		freed := sys.Collect()
		if want := len(objs) - len(reach); freed != want {
			t.Fatalf("trial %d: freed %d, oracle says %d unreachable", trial, freed, want)
		}
		for _, id := range objs {
			if reach[id] != rt.Heap.Live(id) {
				t.Fatalf("trial %d: object %d live=%v oracle=%v", trial, id, rt.Heap.Live(id), reach[id])
			}
		}
	}
}

// TestFlatAndHookedMarksAgree pins the two mark loops against each
// other and against an independent oracle, on two inputs: a cycle with
// no Begin or Scan, and one whose Begin pre-marks a random subset of
// the objects and whose Scan lists some live objects and one dead id.
// Over twin worlds of one seed, a cycle with no Reached/Edge slot
// (markFlat) and a fully observed one (markHooked) must count the same
// Marked, EdgeVisits and Freed and leave the same live set and the same
// arena. Both must match a BFS that shares no code with either loop:
// it neither enters nor frees a pre-marked object, takes the referents
// of the live Scan entries as roots after the frames' and skips the
// dead one. Every Reached frame must be the oldest frame whose roots
// reach the object — the dependent frame the §3.6 rebuild takes from
// it — and none for an object that only a Scan entry reaches.
func TestFlatAndHookedMarksAgree(t *testing.T) {
	type outcome struct {
		freed int
		stats Stats
		live  []heap.HandleID
		arena heap.Info
	}
	finish := func(rt *vm.Runtime, sys *System, objs []heap.HandleID, freed int) outcome {
		out := outcome{freed: freed, stats: sys.Engine().Stats(), arena: rt.Heap.Arena().Info()}
		for _, id := range objs {
			if rt.Heap.Live(id) {
				out.live = append(out.live, id)
			}
		}
		return out
	}
	// slots draws the second input from a world's objects, identically
	// in twin worlds: a quarter of them pre-marked, and a quarter of
	// them scanned after a dead id, an object allocated and freed just
	// before the cycle. It returns the pre-marked set too; the first
	// input is the zero Cycle and an empty set.
	slots := func(rt *vm.Runtime, objs []heap.HandleID, seed int64, with bool) (Cycle, map[heap.HandleID]bool) {
		pre := make(map[heap.HandleID]bool)
		if !with {
			return Cycle{}, pre
		}
		rng := rand.New(rand.NewSource(seed))
		dead, err := rt.Heap.Alloc(rt.Heap.ClassOf(objs[0]), 0)
		if err != nil {
			t.Fatal(err)
		}
		rt.Heap.Free(dead)
		scan := []heap.HandleID{dead}
		for _, id := range objs {
			if rng.Intn(4) == 0 {
				pre[id] = true
			}
			if rng.Intn(4) == 0 {
				scan = append(scan, id)
			}
		}
		return Cycle{
			Begin: func(mark heap.Bitset) {
				for id := range pre {
					mark.Set(int(id))
				}
			},
			Scan: scan,
		}, pre
	}
	for _, with := range []bool{false, true} {
		scanOnly := 0 // objects only a Scan entry reaches, over all seeds
		for seed := int64(0); seed < 60; seed++ {
			var flat, hooked outcome
			buildWorld(4000+seed, 1<<20, func(rt *vm.Runtime, sys *System, objs []heap.HandleID) {
				cy, _ := slots(rt, objs, seed, with)
				flat = finish(rt, sys, objs, sys.Engine().Collect(cy))
			})
			buildWorld(4000+seed, 1<<20, func(rt *vm.Runtime, sys *System, objs []heap.HandleID) {
				cy, pre := slots(rt, objs, seed, with)
				// The oracle, before the cycle: each root presentation's
				// full closure, short of the pre-marked objects — the
				// frames' in EachRootFrame order, then each live Scan
				// entry's referents. An object belongs to the first
				// presentation whose closure holds it.
				owner := make(map[heap.HandleID]uint64)
				present := func(frame uint64, roots []heap.HandleID) {
					seen := make(map[heap.HandleID]bool)
					var queue []heap.HandleID
					push := func(id heap.HandleID) {
						if id != heap.Nil && !pre[id] && !seen[id] {
							seen[id] = true
							queue = append(queue, id)
						}
					}
					for _, r := range roots {
						push(r)
					}
					for len(queue) > 0 {
						id := queue[0]
						queue = queue[1:]
						if _, ok := owner[id]; !ok {
							owner[id] = frame
						}
						rt.Heap.Refs(id, push)
					}
				}
				rt.EachRootFrame(func(f *vm.Frame, roots []heap.HandleID) { present(f.ID, roots) })
				for _, src := range cy.Scan {
					if rt.Heap.Live(src) {
						var referents []heap.HandleID
						rt.Heap.Refs(src, func(dst heap.HandleID) { referents = append(referents, dst) })
						present(fromScan, referents)
					}
				}
				var wantEdges uint64
				for id := range owner {
					rt.Heap.Refs(id, func(heap.HandleID) { wantEdges++ })
				}
				wantFreed := 0
				for _, id := range objs {
					if _, ok := owner[id]; !ok && !pre[id] {
						wantFreed++
					}
				}

				reached := make(map[heap.HandleID]uint64)
				cy.Reached = recordReached(reached).Reached
				var edges uint64
				cy.Edge = func(src, dst heap.HandleID) {
					if _, ok := reached[src]; !ok {
						t.Fatalf("seed %d: Edge %d->%d before Reached(%d)", seed, src, dst, src)
					}
					if _, ok := reached[dst]; !ok && !pre[dst] {
						t.Fatalf("seed %d: Edge %d->%d before Reached(%d)", seed, src, dst, dst)
					}
					edges++
				}
				willFree := 0
				cy.WillFree = func(id heap.HandleID) {
					if _, ok := owner[id]; ok || pre[id] {
						t.Fatalf("seed %d: WillFree(%d) on a reachable or pre-marked object", seed, id)
					}
					willFree++
				}
				hooked = finish(rt, sys, objs, sys.Engine().Collect(cy))

				if len(reached) != len(owner) {
					t.Fatalf("seed %d: Reached fired for %d objects, oracle reaches %d", seed, len(reached), len(owner))
				}
				for id, want := range owner {
					if want == fromScan {
						scanOnly++
					}
					if got, ok := reached[id]; !ok || got != want {
						t.Fatalf("seed %d: object %d reached from frame %d (fired=%v), oldest referencing frame is %d",
							seed, id, got, ok, want)
					}
				}
				for id := range pre {
					if !rt.Heap.Live(id) {
						t.Fatalf("seed %d: pre-marked object %d was freed", seed, id)
					}
				}
				if hooked.stats.Marked != uint64(len(owner)) || hooked.stats.EdgeVisits != wantEdges || edges != wantEdges {
					t.Fatalf("seed %d: hooked marked/edges/Edge calls = %d/%d/%d, oracle %d/%d",
						seed, hooked.stats.Marked, hooked.stats.EdgeVisits, edges, len(owner), wantEdges)
				}
				if hooked.freed != wantFreed || willFree != wantFreed {
					t.Fatalf("seed %d: freed %d with %d WillFree calls, oracle says %d unreachable",
						seed, hooked.freed, willFree, wantFreed)
				}
			})
			if flat.freed != hooked.freed || flat.stats != hooked.stats || flat.arena != hooked.arena {
				t.Fatalf("seed %d: flat freed %d %+v %+v, hooked freed %d %+v %+v",
					seed, flat.freed, flat.stats, flat.arena, hooked.freed, hooked.stats, hooked.arena)
			}
			if !slices.Equal(flat.live, hooked.live) {
				t.Fatalf("seed %d: survivors diverge: flat %v, hooked %v", seed, flat.live, hooked.live)
			}
		}
		if with && scanOnly == 0 {
			t.Fatal("no object was reached only from a Scan entry: the second input is vacuous")
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(1)
	f := th.Top()
	f.SetLocal(0, f.MustNew(node))
	th.CallVoid(0, func(g *vm.Frame) { g.MustNew(node) }) // garbage
	sys.Collect()
	sys.Collect()
	st := sys.Engine().Stats()
	if st.Cycles != 2 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
	if st.Marked < 2 || st.Freed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	_ = rt
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Cycles: 1, Marked: 10, Freed: 4, EdgeVisits: 20}
	b := Stats{Cycles: 2, Marked: 5, Freed: 1, EdgeVisits: 7}
	a.Merge(b)
	if a != (Stats{Cycles: 3, Marked: 15, Freed: 5, EdgeVisits: 27}) {
		t.Fatalf("Stats.Merge = %+v", a)
	}
}

// TestWillFreeMayFreeSiblingGarbage pins the sweep's re-check
// contract: an observer whose WillFree releases another garbage object
// itself (eager finalization of an owned buffer, say) must see that
// sibling skipped by the sweep — not double-freed — exactly as the
// per-handle liveness walk the word sweep replaced behaved.
func TestWillFreeMayFreeSiblingGarbage(t *testing.T) {
	rt, sys, node := newRT(1 << 16)
	th := rt.NewThread(0)
	var owner, buf heap.HandleID
	th.CallVoid(0, func(g *vm.Frame) {
		owner = g.MustNew(node)
		buf = g.MustNew(node)
		g.PutField(owner, 0, buf)
	})
	freed := sys.Engine().Collect(Cycle{WillFree: func(id heap.HandleID) {
		if id == owner {
			rt.Heap.Free(buf) // finalizer releases the owned buffer early
		}
	}})
	// Both are gone: one by the observer, one by the sweep; the sweep
	// must count only its own.
	if rt.Heap.Live(owner) || rt.Heap.Live(buf) {
		t.Fatal("garbage survived the cycle")
	}
	if freed != 1 {
		t.Fatalf("sweep freed %d, want 1 (the observer freed the other)", freed)
	}
}
