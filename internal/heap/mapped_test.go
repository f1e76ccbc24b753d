//go:build unix && !aix && !race

package heap_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/results"
	"repro/internal/vm"
)

// endState is everything deterministic a finished cell can be asked:
// what the sweep stores of it and where its heap ended up.
func endState(t *testing.T, r engine.Result) string {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%+v: %v", r.Job, r.Err)
	}
	o := results.Extract(r)
	payload, err := json.Marshal(o.Payload)
	if err != nil {
		t.Fatal(err)
	}
	h := r.RT.Heap
	return fmt.Sprintf("%s cycles=%d arena=%+v handles=%d/%d live=%d stats=%+v",
		payload, o.GCCycles, *o.Arena, h.NumHandles(), h.HandleCap(), h.NumLive(), h.Stats())
}

// widening drives a heap whose freed handle slots come back wider every
// time, so each allocation carves a fresh slab extent and orphans the
// last: 40 live objects and, by the end, 64 000 slots carved from a slab
// reserved at 16 384 (a 64 KiB arena's 4-byte slots). It returns every
// live object's id, address and references.
func widening(t *testing.T) (*heap.Heap, string) {
	h := heap.New(64 << 10)
	arr := h.DefineClass(heap.Class{Name: "Arr", IsArray: true})
	var live []heap.HandleID
	for i := 0; i < 40; i++ {
		for w := 1; w <= 40; w++ {
			id, err := h.Alloc(arr, i+w)
			if err != nil {
				t.Fatal(err)
			}
			if w < 40 {
				h.Free(id) // LIFO: the next, wider object takes this slot
				continue
			}
			for s := range h.NumRefSlots(id) {
				if len(live) > 0 {
					h.SetRef(id, s, live[(i+s)%len(live)])
				}
			}
			live = append(live, id)
		}
	}
	state := fmt.Sprintf("handles=%d/%d stats=%+v", h.NumHandles(), h.HandleCap(), h.Stats())
	for _, id := range live {
		state += fmt.Sprintf(" %d@%d%v", id, h.AddrOf(id), h.RefSlots(id))
	}
	return h, state
}

// TestMappedAndGrownTablesAgree runs the ledger's 28 matrix cells (at
// size 10), one pooled small-then-large sequence and a heap whose
// widening slots carve past the slab's reservation twice: on tables
// reserved by heap.Mapped, and with Mapped returning nil, as it does
// under -race and off unix, so that heap.Grow doubles them. Where a
// table lives is not observable: payloads, cycle counts, arena
// occupancy, handle ids, references and the capacity granted are the
// same, and a slab that outgrows its mapping goes on in a grown copy.
func TestMappedAndGrownTablesAgree(t *testing.T) {
	run := func() (states []string) {
		for _, w := range []string{"compress", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack"} {
			for _, c := range []string{"cg", "cg+recycle", "msa", "gen"} {
				job := engine.Job{Workload: w, Size: 10, Collector: c, HeapBytes: engine.TightHeap}
				states = append(states, endState(t, engine.Exec(job)))
			}
		}
		// The large cell runs on the shard, and the CG tables, the small
		// one left in the pools: regrowth over a dirty table.
		eng := engine.New(1)
		for _, size := range []int{1, 10} {
			job := engine.Job{Workload: "jess", Size: size, Collector: "cg+recycle", HeapBytes: 1 << 24, GCEvery: 5000}
			eng.ExecRelease(job, func(r engine.Result) { states = append(states, endState(t, r)) })
		}
		h, state := widening(t)
		if h.SlabInMapping() {
			t.Error("the widening heap's slab is still in its mapping: it never fell back to Grow")
		}
		return append(states, state)
	}
	if !heap.New(64 << 10).SlabInMapping() {
		t.Skip("this host refuses the mapping: both runs would take the grown path")
	}
	mapped := run()
	heap.SetMapOff(true)
	defer heap.SetMapOff(false)
	if heap.Mapped[uint64](1) != nil {
		t.Fatal("Mapped maps with mapping switched off")
	}
	grown := run()
	for i := range mapped {
		if mapped[i] != grown[i] {
			t.Errorf("cell %d differs:\nmapped %s\ngrown  %s", i, mapped[i], grown[i])
		}
	}
}

// collected runs the two collections that find a dropped owner and
// queue its cleanup, then waits (cleanups run on a goroutine of their
// own) until the gauge is down to want, or, for want < 0, until it has
// stopped falling. It returns the last reading.
func collected(want int64) int64 {
	runtime.GC()
	runtime.GC()
	n := heap.MappingCount()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		m := heap.MappingCount()
		if want < 0 && m == n {
			break
		}
		n = m
	}
	return n
}

// TestDroppedOwnersAreUnmapped: nobody calls Unmap on a heap's tables or
// on a collector's; dropping the owner is the release. A heap holds three
// mappings (handles, live bitmap, ref slab), a runtime with an Access
// slot bound one (the thread-owner table), an attached CG's tables three
// more (object records, reset stamps, set records), and all seven are
// gone two collections after the runtime is.
func TestDroppedOwnersAreUnmapped(t *testing.T) {
	base := collected(-1) // earlier tests' garbage, and core's pool, emptied
	func() {
		rt := vm.New(heap.New(64<<20), core.New(core.DefaultConfig()))
		if got := heap.MappingCount(); got != base+7 {
			t.Fatalf("a heap and a runtime with CG attached hold %d mappings, want 7", got-base)
		}
		runtime.KeepAlive(rt)
	}()
	if got := collected(base); got > base {
		t.Fatalf("%d mappings outlive their owners", got-base)
	}
}

// TestRemapReleasesAtOnce: CG's pooled tables follow the heaps they are
// attached to. A larger heap than the pooled mapping covers gets a new
// one, and the old one is unmapped then, not at some later collection;
// a smaller heap keeps the mapping it finds. Each runtime is released
// when done, which unmaps its heap's tables and its owner table.
func TestRemapReleasesAtOnce(t *testing.T) {
	// core's pool is a sync.Pool: without collections it hands back what
	// detach put in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := vm.New(heap.New(1<<20), core.New(core.DefaultConfig()))
	rt.Reset(vm.None()) // detach: the tables, mapping and all, go to core's pool
	rt.Release()
	held := heap.MappingCount() // the pooled tables'
	for _, size := range []int{1 << 24, 1 << 20, 1 << 24} {
		h := heap.New(size)
		rt = vm.New(h, core.New(core.DefaultConfig()))
		if got := heap.MappingCount(); got != held+4 {
			t.Fatalf("attached to a %d-byte heap: %d mappings, want the %d held before and the new heap's and runtime's 4",
				size, got, held)
		}
		node := h.DefineClass(heap.Class{Name: "Node", Refs: 1})
		f := rt.NewThread(1).Top()
		for i := 0; i < 1000; i++ {
			f.MustNew(node)
		}
		rt.Reset(vm.None())
		rt.Release()
	}
}

// TestEvictedShardsAreUnmapped: the engine's pool owns a shard alone
// once it is pooled, so evicting it releases its mappings then and
// there (Runtime.Release), not at a Go collection that may be long in
// coming. With the collector off, a one-slot pool running tight-heap
// cells of seven arena sizes holds the mappings of the one shard it
// keeps: the count after the first cell is the count after the last.
func TestEvictedShardsAreUnmapped(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng := engine.New(1)
	var counts []int64
	for _, w := range []string{"compress", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack"} {
		job := engine.Job{Workload: w, Size: 1, Collector: "msa", HeapBytes: engine.TightHeap}
		eng.ExecRelease(job, func(r engine.Result) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		})
		counts = append(counts, heap.MappingCount())
	}
	for i, n := range counts {
		if n != counts[0] {
			t.Fatalf("mappings after each cell: %v; cell %d left %d more than the first", counts, i, n-counts[0])
		}
	}
}
