//go:build unix && !aix && !race

package heap_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
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

// shifting drives a heap whose freed extents are never asked for again:
// each churned array is one slot longer than the one before, so every
// allocation carves a fresh slab extent and every free lists one that no
// later allocation pops. 40 rounds of 20 churned arrays, up to 800
// slots, and one small survivor each carve some 320 000 slots from a
// slab reserved at 16 385 (a 64 KiB arena's 4-byte slots, and slot 0).
// It returns every survivor's id, address and references.
func shifting(t *testing.T) (*heap.Heap, string) {
	h := heap.New(64 << 10)
	arr := h.DefineClass(heap.Class{Name: "Arr", IsArray: true})
	var live []heap.HandleID
	for i := 0; i < 40; i++ {
		for w := 1; w <= 20; w++ {
			id, err := h.Alloc(arr, 20*i+w)
			if err != nil {
				t.Fatal(err)
			}
			h.Free(id)
		}
		id, err := h.Alloc(arr, 1+i%5)
		if err != nil {
			t.Fatal(err)
		}
		for s := range h.NumRefSlots(id) {
			if len(live) > 0 {
				h.SetRef(id, s, live[(i+s)%len(live)])
			}
		}
		live = append(live, id)
	}
	state := fmt.Sprintf("handles=%d/%d stats=%+v", h.NumHandles(), h.HandleCap(), h.Stats())
	for _, id := range live {
		state += fmt.Sprintf(" %d@%d%v", id, h.AddrOf(id), h.RefSlots(id))
	}
	return h, state
}

// TestMappedAndGrownTablesAgree runs the ledger's 28 matrix cells (at
// size 10), a small-then-large sequence on one pooled shard and a heap whose
// shifting extent lengths carve past the slab's reservation twice: on
// mapped tables, and with Table.Reserve mapping nothing, as under -race
// and off unix, so that the tables grow by heap.Grow's rule. Where a
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
		// The large cell runs on the shard the small one left in the
		// pool: regrowth over a vacated heap.
		eng := engine.New(1)
		for _, size := range []int{1, 10} {
			job := engine.Job{Workload: "jess", Size: size, Collector: "cg+recycle", HeapBytes: 1 << 24, GCEvery: 5000}
			eng.ExecRelease(job, func(r engine.Result) { states = append(states, endState(t, r)) })
		}
		h, state := shifting(t)
		if h.SlabInMapping() {
			t.Error("the shifting heap's slab is still in its mapping: it never fell back to Grow")
		}
		return append(states, state)
	}
	if !heap.New(64 << 10).SlabInMapping() {
		t.Skip("this host refuses the mapping: both runs would take the grown path")
	}
	mapped := run()
	heap.SetMapOff(true)
	defer heap.SetMapOff(false)
	var probe heap.Table[uint64]
	if probe.Reserve(1); probe.Reserved() != 0 {
		t.Fatal("Reserve maps with mapping switched off")
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

// owners are the collectors that keep tables of their own, beside the
// three of the heap they are attached to (handles, live bitmap, ref
// slab). tables counts the mappings each reserves at Attach: CG's object
// records and set records (its reset stamps only under +reset), gen's
// flag bytes and remembered list, none for msa. Every one of them maps
// its engine's mark bits and DFS stack at its first cycle. access is the
// runtime's owner table, mapped for a collector that binds an Access
// slot, as CG does.
var owners = []struct {
	spec           string
	tables, access int64
	new            func() vm.Collector
}{
	{"cg", 2, 1, func() vm.Collector { return core.New(core.DefaultConfig()) }},
	{"gen", 2, 0, func() vm.Collector { return gengc.New() }},
	{"msa", 0, 0, func() vm.Collector { return msa.NewSystem() }},
}

// scratch is the mappings of the mark–sweep engine's scratch: the mark
// bits and the DFS stack.
const scratch = 2

// TestDroppedOwnersAreUnmapped: nobody calls Release on a heap's tables
// or on a collector's; dropping the owner is the release. Every mapping
// a heap and a runtime with each collector attached hold, after a cycle
// — eight under CG — is gone two collections after the runtime is.
func TestDroppedOwnersAreUnmapped(t *testing.T) {
	for _, o := range owners {
		t.Run(o.spec, func(t *testing.T) {
			base := collected(-1) // earlier tests' garbage emptied
			func() {
				rt := vm.New(heap.New(64<<20), o.new())
				if got, want := heap.MappingCount()-base, 3+o.tables+o.access; got != want {
					t.Fatalf("a heap and a runtime with %s attached hold %d mappings, want %d", o.spec, got, want)
				}
				rt.ForceCollect()
				if got, want := heap.MappingCount()-base, 3+o.tables+o.access+scratch; got != want {
					t.Fatalf("after a cycle, a heap and a runtime with %s attached hold %d mappings, want %d", o.spec, got, want)
				}
			}()
			if got := collected(base); got > base {
				t.Fatalf("%d mappings outlive their owners", got-base)
			}
		})
	}
}

// TestDetachUnmapsTheCollectorsTables: a collector's side tables live
// for its one cell. Under every spec of the grammar, a cell that runs a
// cycle holds its collector's tables and its engine's scratch beside the
// heap's three tables and, where an Access slot is bound, the runtime's
// owner table, and Reset unmaps the collector's at once: the count falls
// back to the heap's and the runtime's own. A demographics cell under
// cg, which never collects, maps no mark scratch.
func TestDetachUnmapsTheCollectorsTables(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cleanup runs mid-count
	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			ev, err := collectors.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			base := collected(-1)
			own := int64(3)
			if ev.Access != nil {
				own++
			}
			h := heap.New(1 << 20)
			rt := vm.New(h, ev)
			node := h.DefineClass(heap.Class{Name: "Node", Refs: 1})
			f := rt.NewThread(1).Top()
			for i := 0; i < 1000; i++ {
				f.MustNew(node)
			}
			rt.ForceCollect()
			if spec != "none" && heap.MappingCount()-base <= own {
				t.Fatalf("a cell that collected under %s holds %d mappings, no more than the heap's and the runtime's %d",
					spec, heap.MappingCount()-base, own)
			}
			rt.Reset(vm.None())
			if got := heap.MappingCount() - base; got != own {
				t.Fatalf("after Reset, %d mappings are held, want the heap's and the runtime's %d", got, own)
			}
			rt.Release()
		})
	}
	t.Run("a demographics cell maps no mark scratch", func(t *testing.T) {
		base := collected(-1)
		o := owners[0]
		job := engine.Job{Workload: "jess", Size: 1, Collector: o.spec}
		engine.New(1).ExecRelease(job, func(r engine.Result) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if n := r.RT.GCCycles(); n != 0 {
				t.Fatalf("the demographics cell ran %d cycles", n)
			}
			if got, want := heap.MappingCount()-base, 3+o.tables+o.access; got != want {
				t.Fatalf("a %s demographics cell holds %d mappings, want %d: the heap's, the owner table and CG's tables", o.spec, got, want)
			}
		})
	})
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

// residentPages reports how many of b's pages the kernel holds in
// memory, where a test file for this system sets it.
var residentPages func(b []byte) int

// TestDecommitLeavesZeros: Table.Decommit zeroes exactly what it is
// given, whether that hands whole pages back to the kernel (a window of
// the mapping, starting on a page or inside one, ending inside the
// mapping or at its end) or clears a Go slice (a slice from outside the
// table, a table with mapping switched off, and a table grown past its
// reservation, as the ref slab is by extents waiting on lists no
// allocation pops — whose Go memory must be cleared, never handed back).
func TestDecommitLeavesZeros(t *testing.T) {
	const n = 5000 // 20 000 bytes: four pages and a part, on 4 KiB pages
	fill := func(s []uint32) {
		for i := range s {
			s[i] = uint32(i) | 1
		}
	}
	check := func(name string, s []uint32, zero bool) {
		t.Helper()
		for i, v := range s {
			if (v == 0) != zero {
				t.Fatalf("%s: word %d reads %#x after Decommit, want zero %v", name, i, v, zero)
			}
		}
	}
	var tab heap.Table[uint32]
	if tab.Reserve(n); tab.Reserved() != n {
		t.Skip("this host refuses the mapping")
	}
	defer tab.Release()
	m := tab.Cover(n, n)
	for _, r := range []struct {
		name   string
		lo, hi int
	}{
		{"from the start, past two pages", 0, 2500},
		{"inside one page", 10, 900},
		{"across pages, off both edges", 100, 4000},
		{"to the mapping's end", 1030, n},
		{"the whole mapping", 0, n},
	} {
		fill(m)
		tab.Decommit(m[r.lo:r.hi])
		check(r.name+": before it", m[:r.lo], false)
		check(r.name, m[r.lo:r.hi], true)
		check(r.name+": after it", m[r.hi:], false)
	}

	elsewhere := make([]uint32, 3000)
	fill(elsewhere)
	fill(m)
	tab.Decommit(elsewhere)
	check("a Go slice given to a mapped table", elsewhere, true)
	check("the mapping beside it", m, false)

	fill(m)
	tab.Decommit(m[:0]) // the table back at the mapping's start, empty
	if &tab.Cover(n, n)[0] != &m[0] {
		t.Fatal("a table covered within its reservation left its mapping")
	}
	grown := tab.Cover(4*n, 4*n)
	if &grown[0] == &m[0] {
		t.Fatal("a table covered past its reservation is still in its mapping")
	}
	fill(grown)
	tab.Decommit(grown)
	if residentPages != nil { // before reading, which would fault a handed-back page in
		b := unsafe.Slice((*byte)(unsafe.Pointer(&grown[0])), 4*len(grown))
		if got, want := residentPages(b), len(b)/os.Getpagesize(); got < want {
			t.Errorf("a grown table's Go memory is resident in %d of its %d whole pages after Decommit: it was handed back", got, want)
		}
	}
	check("a table grown past its reservation", grown, true)
	check("its mapping", m, false)

	heap.SetMapOff(true)
	defer heap.SetMapOff(false)
	var off heap.Table[uint32]
	off.Reserve(n)
	s := off.Cover(n, n)
	fill(s)
	off.Decommit(s[:2500])
	check("with mapping off", s[:2500], true)
	check("with mapping off, past the table", s[2500:], false)
}
