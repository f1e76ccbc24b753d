package msa

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// forceOverlapOff disables the REPRO_OVERLAP force for one test so a
// control runtime really runs stop-the-world even under the CI job
// that forces overlap everywhere.
func forceOverlapOff(t *testing.T) {
	t.Helper()
	old := overlapForced
	overlapForced = false
	t.Cleanup(func() { overlapForced = old })
}

// worldResult is everything observable about a finished world that
// must be bit-equal between the stop-the-world and overlapped
// schedules: cycle counts, collector stats (Marked/Freed/EdgeVisits),
// allocator stats, the exact live-object set with every ref slot, and
// the arena's internal state.
type worldResult struct {
	gcCycles   int
	instr      uint64
	stats      Stats
	heapStats  heap.Stats
	numLive    int
	numHandles int
	liveSig    []heap.HandleID // id, refLen, slots... per live object
	arena      any
	overlapped uint64
}

// driveWorld runs one deterministic randomized mutator — allocation
// bursts, heavy pointer stores (including Nil clears), operand
// forgets — under an msa system with periodic forced collections, and
// extracts the result. The RNG is the only entropy and the collector
// configuration is not consulted by the driver, so two calls with the
// same seed issue the identical event stream; with overlap admitted,
// collection cycles opened by the gc-every countdown trace
// concurrently while the stream keeps stepping, closing at the next
// allocation or countdown.
func driveWorld(t *testing.T, seed int64, cfg TraceConfig) worldResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := heap.New(1 << 22)
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 3, Data: 8})
	sys := NewSystem()
	sys.SetTraceConfig(cfg)
	rt := vm.New(h, sys)
	rt.SetGCEvery(512)
	th := rt.NewThread(4)
	f := th.Top()

	var objs []heap.HandleID
	alloc := func() {
		o := f.MustNew(node)
		objs = append(objs, o)
	}
	for i := 0; i < 600; i++ {
		alloc()
	}
	for i := 0; i < 25000; i++ {
		switch r := rng.Intn(100); {
		case r < 72: // pointer store; 1 in 5 clears the slot
			src := objs[rng.Intn(len(objs))]
			val := heap.Nil
			if rng.Intn(5) != 0 {
				val = objs[rng.Intn(len(objs))]
			}
			f.PutField(src, rng.Intn(3), val)
		case r < 88: // drop a root: the object may become garbage
			if len(objs) > 64 {
				i := rng.Intn(len(objs))
				f.Forget(objs[i])
				objs[i] = objs[len(objs)-1]
				objs = objs[:len(objs)-1]
			}
		default:
			alloc()
		}
	}
	rt.Quiesce()

	res := worldResult{
		gcCycles:   rt.GCCycles(),
		instr:      rt.Instr(),
		stats:      sys.Engine().Stats(),
		heapStats:  h.Stats(),
		numLive:    h.NumLive(),
		numHandles: h.NumHandles(),
		arena:      h.Arena().Info(),
		overlapped: rt.Timeline().Stats().Overlapped,
	}
	h.ForEachLive(func(id heap.HandleID) {
		res.liveSig = append(res.liveSig, id, heap.HandleID(len(h.RefSlots(id))))
		res.liveSig = append(res.liveSig, h.RefSlots(id)...)
	})
	return res
}

// equalWorlds asserts two results are bit-equal in everything but the
// timing-only overlap counter.
func equalWorlds(t *testing.T, name string, a, b worldResult) {
	t.Helper()
	a.overlapped, b.overlapped = 0, 0
	if a.gcCycles != b.gcCycles || a.instr != b.instr || a.stats != b.stats ||
		a.heapStats != b.heapStats || a.numLive != b.numLive || a.numHandles != b.numHandles {
		t.Fatalf("%s: scalar state diverged:\n  a={gc:%d instr:%d stats:%+v heap:%+v live:%d cap:%d}\n  b={gc:%d instr:%d stats:%+v heap:%+v live:%d cap:%d}",
			name, a.gcCycles, a.instr, a.stats, a.heapStats, a.numLive, a.numHandles,
			b.gcCycles, b.instr, b.stats, b.heapStats, b.numLive, b.numHandles)
	}
	if !reflect.DeepEqual(a.liveSig, b.liveSig) {
		t.Fatalf("%s: live-object graph diverged (%d vs %d sig words)", name, len(a.liveSig), len(b.liveSig))
	}
	if !reflect.DeepEqual(a.arena, b.arena) {
		t.Fatalf("%s: arena state diverged:\n  a=%+v\n  b=%+v", name, a.arena, b.arena)
	}
}

// TestOverlapMatchesStopTheWorld is the end-to-end byte-identity
// property: the identical randomized event stream, run once
// stop-the-world and once with overlapped collection admitted (the
// production SATB path: concurrent workers, atomic slot traffic, the
// write barrier, close-before-allocation), finishes with bit-equal
// collector stats, freed sets, live graphs and arena state. Runs
// meaningfully under -race: the overlapped run's cycles trace while
// the mutator stores.
func TestOverlapMatchesStopTheWorld(t *testing.T) {
	forceOverlapOff(t)
	for seed := int64(1); seed <= 6; seed++ {
		stw := driveWorld(t, seed, TraceConfig{})
		if stw.overlapped != 0 {
			t.Fatalf("seed %d: control run overlapped %d cycles", seed, stw.overlapped)
		}
		ov := driveWorld(t, seed, TraceConfig{Overlap: true, MinLive: 1, Workers: 4})
		if ov.overlapped == 0 {
			t.Fatalf("seed %d: overlap run never overlapped a cycle (gc cycles: %d)", seed, ov.gcCycles)
		}
		equalWorlds(t, "stw vs overlap", stw, ov)
	}
}

// TestOverlapDeterministicAcrossWorkers pins schedule-independence:
// with overlap on, worker count (and so interleaving shape) must not
// change a single observable.
func TestOverlapDeterministicAcrossWorkers(t *testing.T) {
	forceOverlapOff(t)
	for seed := int64(10); seed <= 12; seed++ {
		w1 := driveWorld(t, seed, TraceConfig{Overlap: true, MinLive: 1, Workers: 1})
		if w1.overlapped == 0 {
			t.Fatalf("seed %d: single-worker overlap never engaged", seed)
		}
		for _, w := range []int{2, 4, 8} {
			wn := driveWorld(t, seed, TraceConfig{Overlap: true, MinLive: 1, Workers: w})
			equalWorlds(t, "workers", w1, wn)
		}
	}
}

// TestOverlapFrozenAttribution is the attribution half of the
// property: an overlapped cycle in owners mode (frozen snapshot)
// must assign every marked object the identical first-reaching frame
// the sequential stop-the-world attribution assigns on the same
// snapshot, and free exactly the objects the stop-the-world cycle
// would free — no matter how much the mutator stores mid-trace.
func TestOverlapFrozenAttribution(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		buildWorld(seed, 1<<22, func(rt *vm.Runtime, sys *System, objs []heap.HandleID) {
			rng := rand.New(rand.NewSource(seed * 77))
			h := rt.Heap
			m := sys.Engine()
			m.SetTraceConfig(TraceConfig{Overlap: true, MinLive: 1, Workers: 3})
			cap := h.NumHandles()

			// Sequential reference on the same state: mark set +
			// attribution, taken before anything mutates.
			ownersSeq := resetOwners(nil, cap)
			m.mark.Reset(cap)
			m.markParallel(1, ownersSeq)
			seqMark := append(heap.Bitset(nil), m.mark...)
			liveAtOpen := append(heap.Bitset(nil), h.LiveWords()...)

			// Overlapped owners-mode cycle: open, mutate hard, close.
			ownersOv := resetOwners(nil, cap)
			closer, ok := m.collectOverlap(ownersOv, true)
			if !ok {
				t.Fatalf("seed %d: overlap declined", seed)
			}
			f := rt.Threads()[0].Top()
			for i := 0; i < 4*len(objs); i++ {
				val := heap.Nil
				if rng.Intn(3) != 0 {
					val = objs[rng.Intn(len(objs))]
				}
				f.PutField(objs[rng.Intn(len(objs))], rng.Intn(3), val)
			}
			freed := closer()

			wantFreed := 0
			for k, lw := range liveAtOpen {
				g := lw
				if k < len(seqMark) {
					g = lw &^ seqMark[k]
				}
				wantFreed += bits.OnesCount64(g)
			}
			if freed != wantFreed {
				t.Fatalf("seed %d: overlapped cycle freed %d, stop-the-world would free %d", seed, freed, wantFreed)
			}
			for id := 1; id < cap; id++ {
				if seqMark.Has(id) != (ownersOv[id] >= 0) {
					t.Fatalf("seed %d: object %d marked mismatch (seq %v)", seed, id, seqMark.Has(id))
				}
				if ownersOv[id] != ownersSeq[id] {
					t.Fatalf("seed %d: object %d attributed to group %d, sequential says %d",
						seed, id, ownersOv[id], ownersSeq[id])
				}
				if seqMark.Has(id) && !h.Live(heap.HandleID(id)) {
					t.Fatalf("seed %d: reachable object %d was freed", seed, id)
				}
				if !seqMark.Has(id) && liveAtOpen.Has(id) && h.Live(heap.HandleID(id)) {
					t.Fatalf("seed %d: garbage object %d survived", seed, id)
				}
			}
		})
	}
}
