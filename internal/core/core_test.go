package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

func newRT(t testing.TB, cfg Config, arena int) (*vm.Runtime, *CG, heap.ClassID) {
	t.Helper()
	h := heap.New(arena)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	cg := New(cfg)
	rt := vm.New(h, checked(t, cg))
	return rt, cg, node
}

func checkedCfg() Config {
	return Config{StaticOpt: true, Checked: true}
}

// TestWorkedExample reproduces the paper's Figure 2.1/2.2 walk-through:
// frames 0..5 (0 = statics), objects A..E, and the five instructions that
// rearrange their dependent frames. Expected dependent frames after each
// step are taken directly from §2.1.
func TestWorkedExample(t *testing.T) {
	for _, opt := range []bool{false, true} {
		rt, cg, node := newRT(t, Config{StaticOpt: opt, Checked: true}, 1<<16)
		th := rt.NewThread(1) // frame 1
		staticSlot := rt.StaticSlot("E")

		// Build the stack of Figure 2.1. Objects are allocated in the
		// frame whose number the figure gives as their "earliest frame":
		// C in frame 1, B in frame 2, A in frame 3, D in frame 4; E is
		// static. Frame 5 executes the instruction sequence with access
		// to all of them.
		var a, b, cObj, d, e heap.HandleID
		f1 := th.Top()
		cObj = f1.MustNew(node)
		f1.SetLocal(0, cObj)
		th.CallVoid(1, func(f2 *vm.Frame) {
			b = f2.MustNew(node)
			f2.SetLocal(0, b)
			th.CallVoid(1, func(f3 *vm.Frame) {
				a = f3.MustNew(node)
				f3.SetLocal(0, a)
				th.CallVoid(1, func(f4 *vm.Frame) {
					d = f4.MustNew(node)
					f4.SetLocal(0, d)
					th.CallVoid(0, func(f5 *vm.Frame) {
						e = f5.MustNew(node)
						f5.PutStatic(staticSlot, e)

						dep := func(x heap.HandleID) uint64 { return cg.DependentFrame(x).ID }
						if dep(a) != f3.ID || dep(b) != f2.ID || dep(cObj) != f1.ID || dep(d) != f4.ID || dep(e) != 0 {
							t.Fatalf("initial dependent frames wrong: A=%d B=%d C=%d D=%d E=%d",
								dep(a), dep(b), dep(cObj), dep(d), dep(e))
						}

						// (1) B.f = A: A's dependent frame moves from 3 to 2.
						f5.PutField(b, 0, a)
						if dep(a) != f2.ID {
							t.Fatalf("step 1: A depends on %d, want frame 2 (%d)", dep(a), f2.ID)
						}
						// (2) C.f = B: A and B now depend on frame 1.
						f5.PutField(cObj, 0, b)
						if dep(a) != f1.ID || dep(b) != f1.ID {
							t.Fatalf("step 2: A=%d B=%d, want frame 1 (%d)", dep(a), dep(b), f1.ID)
						}
						// (3) D.f = C: A, B, C unchanged; D conservatively
						// joins them on frame 1 (the symmetric property).
						f5.PutField(d, 0, cObj)
						if dep(a) != f1.ID || dep(b) != f1.ID || dep(cObj) != f1.ID {
							t.Fatal("step 3 changed the survivors' frames")
						}
						if dep(d) != f1.ID {
							t.Fatalf("step 3: D depends on %d, want frame 1 (symmetry)", dep(d))
						}
						if !cg.SameSet(a, d) {
							t.Fatal("step 3: D must be equilive with A–C")
						}
						// (4) E.f = D: everything becomes static (frame 0).
						f5.PutField(e, 0, d)
						for _, x := range []heap.HandleID{a, b, cObj, d} {
							if dep(x) != 0 {
								t.Fatalf("step 4: object %d depends on %d, want static", x, dep(x))
							}
						}
						// (5) E.f = null: contamination cannot be undone.
						f5.PutField(e, 0, heap.Nil)
						for _, x := range []heap.HandleID{a, b, cObj, d} {
							if dep(x) != 0 {
								t.Fatal("step 5 must not undo contamination")
							}
						}
					})
				})
			})
		})
		_ = opt
	}
}

// TestStaticOptimization reproduces §3.4: with the optimization, x.f = s
// (s static) leaves x collectable; without it, x is dragged into the
// static set.
func TestStaticOptimization(t *testing.T) {
	run := func(opt bool) (collectable bool) {
		rt, cg, node := newRT(t, Config{StaticOpt: opt, Checked: true}, 1<<16)
		th := rt.NewThread(1)
		f := th.Top()
		slot := rt.StaticSlot("s")
		s := f.MustNew(node)
		f.PutStatic(slot, s)
		var x heap.HandleID
		th.CallVoid(1, func(g *vm.Frame) {
			x = g.MustNew(node)
			g.SetLocal(0, x)
			g.PutField(x, 0, s) // reference *to* a static object
		})
		return cg.IsTainted(x)
	}
	if !run(true) {
		t.Fatal("with optimization, x must be collected when its frame pops")
	}
	if run(false) {
		t.Fatal("without optimization, x must be (conservatively) static")
	}
}

// TestStaticFingerOfLiveness: a static object referencing x (s.f = x)
// must make x static in both configurations — the optimization only
// covers references *to* statics, never *from* them.
func TestStaticFingerOfLiveness(t *testing.T) {
	for _, opt := range []bool{false, true} {
		rt, cg, node := newRT(t, Config{StaticOpt: opt, Checked: true}, 1<<16)
		th := rt.NewThread(1)
		f := th.Top()
		slot := rt.StaticSlot("s")
		s := f.MustNew(node)
		f.PutStatic(slot, s)
		var x heap.HandleID
		th.CallVoid(1, func(g *vm.Frame) {
			x = g.MustNew(node)
			g.SetLocal(0, x)
			g.PutField(s, 0, x) // the static finger
		})
		if cg.IsTainted(x) {
			t.Fatalf("opt=%v: statically reachable object was collected", opt)
		}
		if cg.DependentFrame(x).ID != 0 {
			t.Fatalf("opt=%v: x not static", opt)
		}
	}
}

// TestFramePopCollects: objects die exactly when their dependent frame
// pops, not earlier, not later.
func TestFramePopCollects(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(0)
	var inner heap.HandleID
	th.CallVoid(1, func(f *vm.Frame) {
		inner = f.MustNew(node)
		f.SetLocal(0, inner)
		if cg.IsTainted(inner) {
			t.Fatal("collected while its frame is live")
		}
	})
	if !cg.IsTainted(inner) {
		t.Fatal("not collected when its frame popped")
	}
	if rt.Heap.Live(inner) {
		t.Fatal("storage not released")
	}
	if cg.Stats().Popped != 1 || cg.Stats().Singleton != 1 {
		t.Fatalf("stats: %+v", cg.Stats())
	}
}

// TestAReturnPromotes: a returned object survives its birth frame and
// dies with the caller.
func TestAReturnPromotes(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(1)
	var obj heap.HandleID
	th.CallVoid(1, func(caller *vm.Frame) {
		obj = th.Call(0, func(callee *vm.Frame) heap.HandleID {
			return callee.MustNew(node)
		})
		if cg.IsTainted(obj) {
			t.Fatal("returned object died with its birth frame")
		}
		if cg.DependentFrame(obj) != caller {
			t.Fatal("returned object not promoted to the caller")
		}
		caller.SetLocal(0, obj)
	})
	if !cg.IsTainted(obj) {
		t.Fatal("object outlived the caller it depended on")
	}
	// Age-at-death distance: born at depth 3, died at depth 2 -> 1.
	if cg.Stats().AgeAtDeath[1] != 1 {
		t.Fatalf("age histogram: %v", cg.Stats().AgeAtDeath)
	}
}

// TestAReturnNeverDemotes: returning an already-older object must not
// move it to a younger frame.
func TestAReturnNeverDemotes(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(1)
	f1 := th.Top()
	obj := f1.MustNew(node)
	f1.SetLocal(0, obj)
	th.CallVoid(1, func(f2 *vm.Frame) {
		got := th.Call(0, func(f3 *vm.Frame) heap.HandleID {
			return obj // return an object born in frame 1
		})
		if got != obj || cg.DependentFrame(obj) != f1 {
			t.Fatal("areturn demoted an older object")
		}
		_ = f2
	})
}

// TestThreadSharing reproduces Figure 3.1: an object touched by a second
// thread becomes static, along with its whole block.
func TestThreadSharing(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	t1 := rt.NewThread(1)
	t2 := rt.NewThread(1)
	f1 := t1.Top()
	a := f1.MustNew(node)
	buddy := f1.MustNew(node)
	f1.PutField(a, 0, buddy) // same equilive block
	f1.SetLocal(0, a)
	if cg.DependentFrame(a).ID == 0 {
		t.Fatal("static too early")
	}
	t2.Top().SetLocal(0, a) // thread 2 touches A
	if cg.DependentFrame(a).ID != 0 {
		t.Fatal("shared object not demoted to static")
	}
	if cg.DependentFrame(buddy).ID != 0 {
		t.Fatal("block-mate of shared object not demoted")
	}
	if cg.Stats().Shared != 2 {
		t.Fatalf("Shared = %d, want 2 (whole block)", cg.Stats().Shared)
	}
	// Same-thread re-access must not inflate the counter.
	t2.Top().SetLocal(0, a)
	f1.SetLocal(0, a)
	if cg.Stats().Shared != 2 {
		t.Fatal("repeated access re-counted sharing")
	}
}

// TestInternIsStatic reproduces §3.2: interned objects live forever.
func TestInternIsStatic(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(0)
	var s heap.HandleID
	th.CallVoid(0, func(f *vm.Frame) {
		var err error
		s, err = f.Intern("canonical", node)
		if err != nil {
			t.Fatal(err)
		}
	})
	if cg.IsTainted(s) || !rt.Heap.Live(s) {
		t.Fatal("interned object collected")
	}
	if cg.DependentFrame(s).ID != 0 {
		t.Fatal("interned object not static")
	}
}

// TestMonotoneAgeing property: across a random workload, a live object's
// dependent-frame ID never increases (the never-younger rule), except via
// the explicitly-enabled reset pass.
func TestMonotoneAgeing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rt, cg, node := newRT(t, checkedCfg(), 1<<20)
	th := rt.NewThread(4)
	// Handle IDs are reused after frees, so identify objects by
	// (handle, incarnation): the test stamps each allocation, and a
	// changed stamp means a new object occupies the slot and the
	// history resets.
	type ident struct {
		dep   uint64
		birth uint64
	}
	lastDep := make(map[heap.HandleID]ident)
	incarnation := make(map[heap.HandleID]uint64)
	var allocs uint64
	var objs []heap.HandleID
	checkAll := func() {
		seen := make(map[heap.HandleID]bool)
		out := objs[:0]
		for _, o := range objs {
			if cg.IsTainted(o) || seen[o] {
				delete(lastDep, o)
				continue
			}
			seen[o] = true
			out = append(out, o)
			id := cg.DependentFrame(o).ID
			birth := incarnation[o]
			if prev, ok := lastDep[o]; ok && prev.birth == birth && id > prev.dep {
				t.Fatalf("object %d aged from frame %d to younger frame %d", o, prev.dep, id)
			}
			lastDep[o] = ident{dep: id, birth: birth}
		}
		objs = out
	}
	budget := 400 // total frames per run: bounds the random recursion
	var step func(depth int)
	step = func(depth int) {
		f := th.Top()
		for i := 0; i < 20; i++ {
			switch rng.Intn(6) {
			case 0, 1:
				o := f.MustNew(node)
				allocs++
				incarnation[o] = allocs
				objs = append(objs, o)
				f.SetLocal(rng.Intn(4), o)
			case 2:
				if len(objs) >= 2 {
					a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
					if !cg.IsTainted(a) && !cg.IsTainted(b) {
						f.PutField(a, rng.Intn(2), b)
					}
				}
			case 3:
				if len(objs) > 0 {
					o := objs[rng.Intn(len(objs))]
					if !cg.IsTainted(o) {
						f.PutStatic(rt.StaticSlot("s"), o)
					}
				}
			case 4:
				if depth < 6 && budget > 0 {
					budget--
					th.CallVoid(4, func(*vm.Frame) { step(depth + 1) })
				}
			case 5:
				checkAll()
			}
		}
		checkAll()
	}
	step(0)
}

// TestSafetyOracle is the headline conservativeness property: every
// object CG declares dead is unreachable from all roots at that moment,
// across randomized programs (DESIGN.md §5 "A set record per set").
func TestSafetyOracle(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var rt *vm.Runtime
		cfg := Config{StaticOpt: trial%2 == 0, Checked: true}
		cfg.FreeHook = func(id heap.HandleID) {
			if reachable(rt, id) {
				t.Fatalf("trial %d: CG freed reachable object %d", trial, id)
			}
		}
		h := heap.New(1 << 20)
		node := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
		cg := New(cfg)
		rt = vm.New(h, checked(t, cg))
		th := rt.NewThread(4)

		var live []heap.HandleID
		budget := 120 // total frames per trial: bounds the random recursion
		prune := func() {
			out := live[:0]
			for _, o := range live {
				if !cg.IsTainted(o) {
					out = append(out, o)
				}
			}
			live = out
		}
		var run func(depth int)
		run = func(depth int) {
			f := th.Top()
			steps := 5 + rng.Intn(20)
			for i := 0; i < steps; i++ {
				prune()
				switch rng.Intn(10) {
				case 0, 1, 2:
					o := f.MustNew(node)
					live = append(live, o)
					if rng.Intn(2) == 0 {
						f.SetLocal(rng.Intn(4), o)
					}
				case 3, 4:
					if len(live) >= 2 {
						f.PutField(live[rng.Intn(len(live))], rng.Intn(2), live[rng.Intn(len(live))])
					}
				case 5:
					if len(live) > 0 {
						f.PutStatic(rt.StaticSlot("x"), live[rng.Intn(len(live))])
					}
				case 6, 7:
					if depth < 8 && budget > 0 {
						budget--
						th.CallVoid(4, func(*vm.Frame) { run(depth + 1) })
					}
				case 8:
					if len(live) > 0 && depth < 8 && budget > 0 {
						budget--
						ret := th.Call(4, func(g *vm.Frame) heap.HandleID {
							run(depth + 1)
							prune()
							if len(live) == 0 {
								return heap.Nil
							}
							return live[rng.Intn(len(live))]
						})
						if ret != heap.Nil {
							f.SetLocal(rng.Intn(4), ret)
						}
					}
				case 9:
					if len(live) > 0 {
						f.PutField(live[rng.Intn(len(live))], rng.Intn(2), heap.Nil)
					}
				}
			}
		}
		run(0)
	}
}

// reachable is the exact oracle: BFS from every root.
func reachable(rt *vm.Runtime, target heap.HandleID) bool {
	seen := make(map[heap.HandleID]bool)
	var queue []heap.HandleID
	push := func(id heap.HandleID) {
		if id != heap.Nil && !seen[id] {
			seen[id] = true
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
		if id == target {
			return true
		}
		rt.Heap.Refs(id, push)
	}
	return seen[target]
}

// TestBlockSizeHistogram: three mutually-referencing objects form one
// block of size 3.
func TestBlockSizeHistogram(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(0)
	th.CallVoid(3, func(f *vm.Frame) {
		a, b, c := f.MustNew(node), f.MustNew(node), f.MustNew(node)
		f.PutField(a, 0, b)
		f.PutField(b, 0, c)
		if cg.SetSize(a) != 3 {
			t.Fatalf("set size = %d, want 3", cg.SetSize(a))
		}
	})
	st := cg.Stats()
	if st.BlockSize[2] != 1 { // bucket "3"
		t.Fatalf("block histogram: %v", st.BlockSize)
	}
	if st.Popped != 3 || st.Singleton != 0 {
		t.Fatalf("stats: %+v", st)
	}
	_ = rt
}

// TestRecycling: popped sets feed later allocations without touching the
// arena allocator (§3.7).
func TestRecycling(t *testing.T) {
	cfg := Config{StaticOpt: true, Recycle: true, Checked: true}
	rt, cg, node := newRT(t, cfg, 1<<10) // 1 KiB: 42 Nodes max
	th := rt.NewThread(0)
	// Fill most of the heap with frame-local garbage.
	th.CallVoid(1, func(f *vm.Frame) {
		for i := 0; i < 30; i++ {
			f.SetLocal(0, f.MustNew(node))
		}
	})
	if got := cg.RecycledObjects(); got != 30 {
		t.Fatalf("recycle list holds %d, want 30", got)
	}
	// Allocate beyond the arena remainder: must be satisfied by reuse.
	th.CallVoid(1, func(f *vm.Frame) {
		for i := 0; i < 35; i++ {
			f.SetLocal(0, f.MustNew(node))
		}
	})
	if cg.Stats().Reused == 0 {
		t.Fatal("no recycled objects were reused")
	}
	if cg.MSAStats().Cycles != 0 {
		t.Fatal("traditional collector ran although recycling sufficed")
	}
}

// TestRecycleBestFitSkipsSmall: reuse must pick an extent large
// enough — the size-class index must skip recycled extents that are
// too small and serve the smallest class that fits.
func TestRecycleBestFitSkipsSmall(t *testing.T) {
	h := heap.New(1 << 10)
	small := h.DefineClass(heap.Class{Name: "S", Data: 0}) // 8 bytes
	big := h.DefineClass(heap.Class{Name: "B", Data: 56})  // 64 bytes
	cg := New(Config{StaticOpt: true, Recycle: true, Checked: true})
	rt := vm.New(h, checked(t, cg))
	th := rt.NewThread(0)
	var smallObj, bigObj heap.HandleID
	th.CallVoid(2, func(f *vm.Frame) {
		smallObj = f.MustNew(small)
		bigObj = f.MustNew(big)
		f.SetLocal(0, smallObj)
		f.SetLocal(1, bigObj)
	})
	if cg.RecycledObjects() != 2 {
		t.Fatalf("recycle list holds %d, want 2", cg.RecycledObjects())
	}
	got, ok := cg.AllocFallback(big, 0)
	if !ok {
		t.Fatal("fallback failed although a big extent is recycled")
	}
	if got != bigObj {
		t.Fatalf("fallback returned %d, want the big extent %d", got, bigObj)
	}
	if h.SizeOf(got) < heap.InstanceSize(h.ClassDef(big), 0) {
		t.Fatal("fallback returned an undersized extent")
	}
	// Only the small extent remains; another big request must fail, a
	// small one must succeed.
	if _, ok := cg.AllocFallback(big, 0); ok {
		t.Fatal("fallback fabricated a second big extent")
	}
	got2, ok := cg.AllocFallback(small, 0)
	if !ok || got2 != smallObj {
		t.Fatalf("small fallback = (%d,%v), want (%d,true)", got2, ok, smallObj)
	}
	if cg.RecycledObjects() != 0 {
		t.Fatal("recycle list not emptied")
	}
}

// TestMSARebuildPurgesStructures: after a traditional collection frees
// objects CG thought live, CG's structures must not reference them, and
// subsequent frame pops must not double-free.
func TestMSARebuildPurgesStructures(t *testing.T) {
	for _, reset := range []bool{false, true} {
		rt, cg, node := newRT(t, Config{StaticOpt: true, ResetOnGC: reset, Checked: true}, 1<<16)
		th := rt.NewThread(2)
		f := th.Top()
		keep := f.MustNew(node)
		f.SetLocal(0, keep)
		garbage := f.MustNew(node)
		f.PutField(keep, 0, garbage) // same block as keep
		f.PutField(keep, 0, heap.Nil)
		f.Forget(garbage) // drop the JNI-style local reference
		// garbage is now unreachable but CG still thinks it equilive
		// with keep (contamination cannot be undone).
		if cg.IsTainted(garbage) {
			t.Fatal("premature")
		}
		freed := rt.ForceCollect()
		if freed != 1 {
			t.Fatalf("reset=%v: MSA freed %d, want 1", reset, freed)
		}
		if cg.Stats().MSAFreed != 1 {
			t.Fatalf("reset=%v: MSAFreed stat = %d", reset, cg.Stats().MSAFreed)
		}
		if rt.Heap.Live(garbage) {
			t.Fatal("swept object still live")
		}
		// keep survives and still has a sane dependent frame; popping the
		// root frame later must free exactly keep, not the swept object.
		if cg.DependentFrame(keep).ID != f.ID {
			t.Fatalf("reset=%v: keep's frame = %d, want %d", reset, cg.DependentFrame(keep).ID, f.ID)
		}
	}
}

// TestResetImprovesFrames reproduces the §3.6 effect: an object dragged
// into the static set by a transient static reference is restored to its
// true (younger) frame by a resetting collection.
func TestResetImprovesFrames(t *testing.T) {
	rt, cg, node := newRT(t, Config{StaticOpt: true, ResetOnGC: true, Checked: true}, 1<<16)
	th := rt.NewThread(2)
	f := th.Top()
	slot := rt.StaticSlot("finger")
	x := f.MustNew(node)
	f.SetLocal(0, x)
	f.PutStatic(slot, x) // static finger touches x ...
	if cg.DependentFrame(x).ID != 0 {
		t.Fatal("x not static after putstatic")
	}
	f.PutStatic(slot, heap.Nil) // ... and points away
	rt.ForceCollect()
	if cg.DependentFrame(x).ID != f.ID {
		t.Fatalf("reset left x on frame %d, want %d", cg.DependentFrame(x).ID, f.ID)
	}
	st := cg.Stats()
	if st.LessLive != 1 || st.FromStatic != 1 {
		t.Fatalf("reset stats: %+v", st)
	}
	// Without ResetOnGC the same program must keep x static.
	rt2, cg2, node2 := newRT(t, Config{StaticOpt: true, Checked: true}, 1<<16)
	th2 := rt2.NewThread(2)
	g := th2.Top()
	slot2 := rt2.StaticSlot("finger")
	y := g.MustNew(node2)
	g.SetLocal(0, y)
	g.PutStatic(slot2, y)
	g.PutStatic(slot2, heap.Nil)
	rt2.ForceCollect()
	if cg2.DependentFrame(y).ID != 0 {
		t.Fatal("non-reset collection improved a dependent frame")
	}
}

// TestResetKeepsSharingSticky: thread-shared objects stay static across
// resetting collections (§3.3 conservatism survives §3.6).
func TestResetKeepsSharingSticky(t *testing.T) {
	rt, cg, node := newRT(t, Config{StaticOpt: true, ResetOnGC: true, Checked: true}, 1<<16)
	t1 := rt.NewThread(1)
	t2 := rt.NewThread(1)
	a := t1.Top().MustNew(node)
	t1.Top().SetLocal(0, a)
	t2.Top().SetLocal(0, a)
	if cg.DependentFrame(a).ID != 0 {
		t.Fatal("not demoted")
	}
	t2.Top().SetLocal(0, heap.Nil) // second thread lets go
	rt.ForceCollect()
	if cg.DependentFrame(a).ID != 0 {
		t.Fatal("reset un-demoted a shared object")
	}
}

// TestSnapshotBuckets: end-of-run classification sums to Created.
func TestSnapshotBuckets(t *testing.T) {
	rt, cg, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(1)
	f := th.Top()
	slot := rt.StaticSlot("s")
	f.PutStatic(slot, f.MustNew(node)) // 1 static
	th.CallVoid(1, func(g *vm.Frame) {
		g.SetLocal(0, g.MustNew(node)) // 1 popped
		g.MustNew(node)                // another popped
	})
	t2 := rt.NewThread(1)
	shared := f.MustNew(node)
	f.SetLocal(0, shared)
	t2.Top().SetLocal(0, shared) // 1 thread-shared
	b := cg.Snapshot()
	if b.Created != 4 || b.Popped != 2 || b.Static != 1 || b.Thread != 1 || b.MSA != 0 {
		t.Fatalf("breakdown: %+v", b)
	}
	if b.Popped+b.Static+b.Thread+b.MSA+b.Live != b.Created {
		t.Fatalf("buckets do not sum: %+v", b)
	}
}

// TestCheckedCatchesTaintedTouch: the §3.1.4 tainted-list assurance.
func TestCheckedCatchesTaintedTouch(t *testing.T) {
	rt, _, node := newRT(t, checkedCfg(), 1<<16)
	th := rt.NewThread(1)
	var dead heap.HandleID
	th.CallVoid(1, func(f *vm.Frame) {
		dead = f.MustNew(node)
		f.SetLocal(0, dead)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("touching a tainted object did not panic in Checked mode")
		}
	}()
	th.Top().SetLocal(0, dead) // use-after-free
}

func TestStatsMergeIsOrderIndependentSum(t *testing.T) {
	a := Stats{Created: 10, Popped: 7, Singleton: 3, Shared: 1, Unions: 5,
		BlockSize: [7]uint64{1, 2, 0, 0, 0, 0, 4}, AgeAtDeath: [7]uint64{9, 0, 0, 0, 0, 0, 1}}
	b := Stats{Created: 2, Popped: 1, Reused: 6, MSAFreed: 2, LessLive: 3, FromStatic: 1, OptSkips: 8,
		BlockSize: [7]uint64{0, 1, 1, 0, 0, 0, 0}, AgeAtDeath: [7]uint64{0, 2, 0, 0, 0, 0, 0}}
	ab, ba := a, b
	ab.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Fatalf("Merge not commutative:\n%+v\n%+v", ab, ba)
	}
	if ab.Created != 12 || ab.Popped != 8 || ab.BlockSize[1] != 3 || ab.AgeAtDeath[6] != 1 {
		t.Fatalf("Merge sums wrong: %+v", ab)
	}
}

func TestBreakdownMerge(t *testing.T) {
	a := Breakdown{Created: 5, Popped: 2, Static: 1, Thread: 1, MSA: 1, Live: 0}
	b := Breakdown{Created: 3, Popped: 1, Static: 0, Thread: 1, MSA: 0, Live: 1}
	a.Merge(b)
	if a != (Breakdown{Created: 8, Popped: 3, Static: 1, Thread: 2, MSA: 1, Live: 1}) {
		t.Fatalf("Breakdown.Merge = %+v", a)
	}
}

// recycleKey orders the recycle lists as FlushRecycle drains them:
// ladder classes, then spill sizes, then typed lists by class id.
type recycleKey struct{ tier, n int }

// recycleCell runs one scripted cell under cfg on rt and returns CG's
// recycle lists as a model computes them from the order CG declared
// objects dead: per list, oldest first. Each of six rounds allocates two
// singletons (classes S and B), an S–B pair and a pair of arrays wide
// enough to spill past the ladder, at two sizes.
func recycleCell(t *testing.T, rt *vm.Runtime, cfg Config) (*CG, map[recycleKey][]heap.HandleID) {
	var dead []heap.HandleID
	cfg.FreeHook = func(o heap.HandleID) { dead = append(dead, o) }
	cg := New(cfg)
	rt.Reset(checked(t, cg))
	h := rt.Heap
	s := h.DefineClass(heap.Class{Name: "S", Refs: 1})
	b := h.DefineClass(heap.Class{Name: "B", Refs: 2, Data: 64})
	arr := h.DefineClass(heap.Class{Name: "Arr", IsArray: true})
	single := map[heap.HandleID]bool{}
	rt.NewThread(0).CallVoid(1, func(f *vm.Frame) {
		for i := 0; i < 6; i++ {
			single[f.MustNew(s)], single[f.MustNew(b)] = true, true
			p, q := f.MustNew(s), f.MustNew(b)
			f.PutField(q, 0, p)
			x, y := f.MustNewArray(arr, 1100+200*(i%2)), f.MustNewArray(arr, 1300)
			f.PutField(x, 0, y)
		}
	})
	lists := map[recycleKey][]heap.HandleID{}
	for _, o := range dead {
		k := recycleKey{0, heap.SizeClass(h.SizeOf(o))}
		switch {
		case cfg.TypedRecycle && single[o]:
			k = recycleKey{2, int(h.ClassOf(o))}
		case h.SizeOf(o) > heap.MaxSmallSize:
			k = recycleKey{1, h.SizeOf(o)}
		}
		lists[k] = append(lists[k], o)
	}
	return cg, lists
}

// TestRecycleListOrder pins the three orders of the recycle lists, which
// live in the dead objects' own records, under cg+recycle (ladder and
// spill lists) and cg+typed (typed lists beside them):
//   - AllocFallback takes the newest object of the best-fitting list;
//   - FlushRecycle frees ladder classes in ascending order, oldest first
//     within a class, then spill sizes, then typed classes: the handle
//     ids and arena addresses fresh allocations get afterwards are those
//     a free in exactly that order leaves behind;
//   - the lists go with the collector: the next cell on a runtime reset
//     under full lists runs as on a fresh runtime.
func TestRecycleListOrder(t *testing.T) {
	for _, cfg := range []Config{{StaticOpt: true, Recycle: true}, {StaticOpt: true, TypedRecycle: true}} {
		name := "cg+recycle"
		if cfg.TypedRecycle {
			name += "+typed"
		}
		t.Run(name, func(t *testing.T) {
			type alloc struct {
				id   heap.HandleID
				addr int
			}
			// run plays a cell, takes from the lists what AllocFallback
			// hands out, frees the rest (by FlushRecycle, or by hand in
			// the model's order) and reallocates every freed object's
			// shape straight from the heap.
			run := func(rt *vm.Runtime, byHand bool) []alloc {
				cg, lists := recycleCell(t, rt, cfg)
				h := rt.Heap
				take := func(k recycleKey, cls heap.ClassID, extra int) {
					l := lists[k]
					if o, ok := cg.AllocFallback(cls, extra); !ok || o != l[len(l)-1] {
						t.Fatalf("AllocFallback(%s, %d) = %d, %v; want %d, the newest of list %v", h.ClassDef(cls).Name, extra, o, ok, l[len(l)-1], k)
					}
					lists[k] = l[:len(l)-1]
				}
				s, _ := h.ClassByName("S")
				b, _ := h.ClassByName("B")
				arr, _ := h.ClassByName("Arr")
				mid := h.DefineClass(heap.Class{Name: "Mid", Refs: 8}) // 40 B: best fit is B's 80-byte class
				if cfg.TypedRecycle {
					take(recycleKey{2, int(s)}, s, 0)
					take(recycleKey{2, int(b)}, b, 0)
				} else {
					take(recycleKey{0, heap.SizeClass(16)}, s, 0)
				}
				take(recycleKey{0, heap.SizeClass(80)}, mid, 0)
				take(recycleKey{1, heap.InstanceSize(heap.Class{}, 1300)}, arr, 1200)
				keys := make([]recycleKey, 0, len(lists))
				for k := range lists {
					keys = append(keys, k)
				}
				slices.SortFunc(keys, func(x, y recycleKey) int { return cmp.Or(x.tier-y.tier, x.n-y.n) })
				var order []heap.HandleID
				var shapes [][2]int
				for _, k := range keys {
					for _, o := range lists[k] {
						order = append(order, o)
						cls := h.ClassOf(o)
						shapes = append(shapes, [2]int{int(cls), h.NumRefSlots(o) - h.ClassDef(cls).Refs})
					}
				}
				if got := cg.RecycledObjects(); got != len(order) {
					t.Fatalf("%d objects wait on the recycle lists, the model has %d", got, len(order))
				}
				if byHand {
					for _, o := range order {
						h.Free(o)
					}
				} else {
					cg.FlushRecycle()
				}
				var fresh []alloc
				for i, sh := range shapes {
					id, err := h.Alloc(heap.ClassID(sh[0]), sh[1])
					if err != nil {
						t.Fatal(err)
					}
					// The free-slot list is LIFO, so ids come back in
					// reverse free order.
					if want := order[len(order)-1-i]; id != want {
						t.Fatalf("fresh allocation %d got handle %d, want %d: not freed in list order", i, id, want)
					}
					fresh = append(fresh, alloc{id, h.AddrOf(id)})
				}
				return fresh
			}
			// A cell leaves its lists full, and the runtime is reset under
			// it: the next cell runs as a fresh runtime does.
			rt := vm.New(heap.New(1<<20), vm.None())
			recycleCell(t, rt, cfg)
			rt.Reset(vm.None())
			reset := run(rt, false)
			if fresh := run(vm.New(heap.New(1<<20), vm.None()), false); !slices.Equal(reset, fresh) {
				t.Fatalf("a cell on a runtime reset under full recycle lists ran otherwise than on a fresh one:\n%v\n%v", reset, fresh)
			}
			if byHand := run(vm.New(heap.New(1<<20), vm.None()), true); !slices.Equal(reset, byHand) {
				t.Fatalf("FlushRecycle left the arena otherwise than a free in list order:\n%v\n%v", reset, byHand)
			}
		})
	}
}

// TestRecycleListsSurviveCompaction: a compaction moves objects, not
// handles, so the recycle lists — dead objects' ids threaded through
// their own records — read the same after one, every waiting object
// keeps its extent's size, AllocFallback still hands out the newest of
// the best-fitting list, and FlushRecycle then frees exactly the
// waiting objects' bytes.
func TestRecycleListsSurviveCompaction(t *testing.T) {
	for _, cfg := range []Config{{StaticOpt: true, Recycle: true}, {StaticOpt: true, TypedRecycle: true}} {
		rt := vm.New(heap.New(1<<20), vm.None())
		cg, lists := recycleCell(t, rt, cfg)
		h := rt.Heap
		read := func(k recycleKey) (ids []heap.HandleID) {
			l := cg.recycleClasses[0]
			switch k.tier {
			case 0:
				l = cg.recycleClasses[k.n]
			case 1:
				l = *cg.spillFor(k.n)
			case 2:
				l = cg.byType[k.n]
			}
			for o := l.head; o != heap.Nil; o = cg.meta[int(o)].next {
				ids = append(ids, o)
			}
			return ids
		}
		sizes := map[heap.HandleID]int{}
		waiting := 0
		for _, l := range lists {
			for _, o := range l {
				sizes[o] = h.SizeOf(o)
				waiting += sizes[o]
			}
		}
		if !h.Compact() {
			t.Fatal("Compact refused")
		}
		for k, l := range lists {
			if got := read(k); !slices.Equal(got, l) {
				t.Fatalf("%+v: list %v reads %v after Compact, want %v", cfg, k, got, l)
			}
		}
		for o, size := range sizes {
			if !h.Live(o) || h.SizeOf(o) != size {
				t.Fatalf("%+v: recycled object %d lost its %d-byte extent in the move", cfg, o, size)
			}
		}
		mid := h.DefineClass(heap.Class{Name: "Mid", Refs: 8}) // 40 B: best fit is B's 80-byte class
		k := recycleKey{0, heap.SizeClass(80)}
		l := lists[k]
		if o, ok := cg.AllocFallback(mid, 0); !ok || o != l[len(l)-1] {
			t.Fatalf("%+v: AllocFallback after Compact = %d, %v; want %d", cfg, o, ok, l[len(l)-1])
		}
		waiting -= sizes[l[len(l)-1]]
		before := h.Arena().InUse()
		cg.FlushRecycle()
		if freed := before - h.Arena().InUse(); freed != waiting {
			t.Fatalf("%+v: FlushRecycle after Compact freed %d bytes, %d were waiting", cfg, freed, waiting)
		}
		if h.Stats().Compactions != 1 {
			t.Fatalf("%+v: %d compactions counted, want 1", cfg, h.Stats().Compactions)
		}
	}
}
