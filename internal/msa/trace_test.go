package msa

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// buildWorld constructs a randomized multi-thread object world: 1-3
// threads, each with a stack of 1-4 live frames holding locals and
// operand roots, a static slot, and a random edge set — then calls
// check while every frame is still live. Identical seeds build
// identical worlds (the RNG is the only entropy), which is what lets
// the equivalence tests run a parallel and a sequential collector over
// twin runtimes.
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

// TestParallelTraceMatchesSequentialFrames is the mark-order
// equivalence property: across randomized heaps and thread counts, the
// parallel tracer's minimum-group-index resolution assigns every
// reached object exactly the first-reaching frame the sequential
// oldest-first mark attributes, and reaches exactly the same object
// set with the same Marked/EdgeVisits counters.
func TestParallelTraceMatchesSequentialFrames(t *testing.T) {
	for trial := int64(0); trial < 25; trial++ {
		buildWorld(1000+trial, 1<<20, func(rt *vm.Runtime, sys *System, objs []heap.HandleID) {
			m := sys.Engine()
			h := rt.Heap
			workers := 2 + int(trial%4)

			// Parallel mark first (no sweep): owner table pre-filled -1.
			m.mark.Reset(h.NumHandles())
			owners := make([]int32, h.NumHandles())
			for i := range owners {
				owners[i] = -1
			}
			before := m.Stats()
			parts := m.markParallel(workers, owners)
			par := m.Stats()

			// Sequential hooked mark over the identical heap state.
			firstFrame := make(map[heap.HandleID]uint64)
			m.Collect(recordReached(firstFrame))
			seq := m.Stats()

			parMarked := par.Marked - before.Marked
			parEdges := par.EdgeVisits - before.EdgeVisits
			seqMarked := seq.Marked - par.Marked
			seqEdges := seq.EdgeVisits - par.EdgeVisits
			if parMarked != seqMarked || parEdges != seqEdges {
				t.Fatalf("trial %d: parallel marked/edges = %d/%d, sequential = %d/%d",
					trial, parMarked, parEdges, seqMarked, seqEdges)
			}
			for _, id := range objs {
				seqF, seqReached := firstFrame[id]
				parReached := owners[int(id)] >= 0
				if seqReached != parReached {
					t.Fatalf("trial %d: object %d reached: parallel=%v sequential=%v",
						trial, id, parReached, seqReached)
				}
				if !seqReached {
					continue
				}
				if got := parts[owners[int(id)]].Frame.ID; got != seqF {
					t.Fatalf("trial %d: object %d first-reaching frame: parallel=%d sequential=%d",
						trial, id, got, seqF)
				}
			}
		})
	}
}

// TestParallelCollectMatchesSequential builds twin worlds from one
// seed and collects one with parallel tracing forced on (multiple
// partitions, multiple workers — the -race multi-partition cycle) and
// one sequentially, demanding identical frees, identical stats and
// identical survivor sets — the whole-cycle determinism claim behind
// honouring any -trace-workers N.
func TestParallelCollectMatchesSequential(t *testing.T) {
	for trial := int64(0); trial < 10; trial++ {
		type outcome struct {
			freed  int
			stats  Stats
			live   []heap.HandleID
			freed2 int
		}
		run := func(parallel bool) outcome {
			var out outcome
			buildWorld(2000+trial, 1<<20, func(rt *vm.Runtime, sys *System, objs []heap.HandleID) {
				if parallel {
					sys.Engine().SetTrace(4, 1) // force: any live count, 4 workers
				} else {
					sys.Engine().SetTrace(1, 0)
				}
				out.freed = sys.Collect()
				out.stats = sys.Engine().Stats()
				for _, id := range objs {
					if rt.Heap.Live(id) {
						out.live = append(out.live, id)
					}
				}
				// A second cycle immediately after must find nothing.
				out.freed2 = sys.Collect()
			})
			return out
		}
		seq, par := run(false), run(true)
		if seq.freed != par.freed || seq.freed2 != par.freed2 {
			t.Fatalf("trial %d: freed %d/%d sequential, %d/%d parallel",
				trial, seq.freed, seq.freed2, par.freed, par.freed2)
		}
		if seq.stats != par.stats {
			t.Fatalf("trial %d: stats diverge: sequential %+v, parallel %+v", trial, seq.stats, par.stats)
		}
		if len(seq.live) != len(par.live) {
			t.Fatalf("trial %d: %d survivors sequential, %d parallel", trial, len(seq.live), len(par.live))
		}
		for i := range seq.live {
			if seq.live[i] != par.live[i] {
				t.Fatalf("trial %d: survivor sets diverge at %d: %d vs %d",
					trial, i, seq.live[i], par.live[i])
			}
		}
	}
}

// TestAutomaticTraceIsSequential pins the default: whatever the host's
// core count, an unset worker count traces sequentially even when the
// live set clears the admission gate, and an explicit count is honoured
// as given. (The GOMAXPROCS-derived default lost to one worker on the
// 2-CPU host it was measured on; DESIGN.md §7.)
func TestAutomaticTraceIsSequential(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		buildWorld(3000, 1<<20, func(rt *vm.Runtime, sys *System, _ []heap.HandleID) {
			m := sys.Engine()
			for _, want := range []int{0, 1, 2, 4, 16} {
				m.SetTraceConfig(TraceConfig{Workers: want, MinLive: 1})
				if want == 0 {
					want = 1
				}
				if got := m.resolveWorkers(); got != want {
					t.Errorf("GOMAXPROCS=%d: resolveWorkers() = %d, want %d", procs, got, want)
				}
				if got := m.parallelWorkers(rt.Heap); got != want {
					t.Errorf("GOMAXPROCS=%d: parallelWorkers() = %d over %d live objects, want %d",
						procs, got, rt.Heap.NumLive(), want)
				}
			}
		})
		runtime.GOMAXPROCS(prev)
	}
}
