//go:build unix && !aix && !race

package heap_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/vm"
)

// collected runs the two collections that find a dropped shard and
// queue its heap's and its arena's cleanups, then waits (cleanups run on
// a goroutine of their own) until the gauge is down to want, or, for
// want < 0, until it has stopped falling. It returns the last reading.
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

// heapTables counts a heap's mappings: its handle table, live bitmap and
// ref slab, and its arena's page records and list heads.
const heapTables = 5

// owners are the collectors that map tables of their own on the heap
// they are attached to, beside its heapTables. tables counts the
// mappings each makes at Attach: CG's object records and set records
// (its reset stamps only under +reset), gen's flag bytes and remembered
// list, none for msa. Every one of them maps its engine's mark bits and
// DFS stack at its first cycle. access is the runtime's owner table,
// mapped for a collector that binds an Access slot, as CG does.
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

// TestDroppedOwnersAreUnmapped: nobody calls Release on a shard — a
// heap and a runtime over it with each collector attached — and
// dropping the shard is the release. Every mapping it holds after a
// cycle — ten under CG — is gone two collections after the shard is:
// the heap's cleanup unmaps the runtime's and the collector's tables
// with its own, and the arena's cleanup its two.
func TestDroppedOwnersAreUnmapped(t *testing.T) {
	for _, o := range owners {
		t.Run(o.spec, func(t *testing.T) {
			base := collected(-1) // earlier tests' garbage emptied
			func() {
				rt := vm.New(heap.New(64<<20), o.new())
				if got, want := heap.MappingCount()-base, heapTables+o.tables+o.access; got != want {
					t.Fatalf("a heap and a runtime with %s attached hold %d mappings, want %d", o.spec, got, want)
				}
				rt.ForceCollect()
				if got, want := heap.MappingCount()-base, heapTables+o.tables+o.access+scratch; got != want {
					t.Fatalf("after a cycle, a heap and a runtime with %s attached hold %d mappings, want %d", o.spec, got, want)
				}
			}()
			if got := collected(base); got > base {
				t.Fatalf("%d mappings outlive their shard", got-base)
			}
		})
	}
}

// TestDetachUnmapsTheCollectorsTables keeps the name it had when a
// collector's detach hook unmapped its tables; that hook is gone, and
// Release is what it checks. A collector's side tables live for its
// one cell, as the runtime's owner table does, because the heap they
// are mapped on unmaps them with its own. Under every spec of the
// grammar, a cell that runs a cycle holds its collector's tables and
// its engine's scratch beside the heap's five tables and, where an
// Access slot is bound, the owner table. Reset unmaps them at once:
// with no collector attached, the count falls back to the fresh heap's
// five. Release then unmaps those, and a second Release finds nothing
// left to unmap. A demographics cell under cg, which never collects,
// maps no mark scratch.
func TestDetachUnmapsTheCollectorsTables(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cleanup runs mid-count
	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			ev, err := collectors.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			base := collected(-1)
			const own = heapTables
			h := heap.New(1 << 20)
			rt := vm.New(h, ev)
			node := h.DefineClass(heap.Class{Name: "Node", Refs: 1})
			f := rt.NewThread(1).Top()
			for i := 0; i < 1000; i++ {
				f.MustNew(node)
			}
			rt.ForceCollect()
			if spec != "none" && heap.MappingCount()-base <= own {
				t.Fatalf("a cell that collected under %s holds %d mappings, no more than the heap's %d",
					spec, heap.MappingCount()-base, own)
			}
			for _, step := range []struct {
				name string
				do   func()
				want int64
			}{
				{"Reset", func() { rt.Reset(vm.None()) }, own},
				{"Release", rt.Release, 0},
				{"a second Release", rt.Release, 0},
			} {
				step.do()
				if got := heap.MappingCount() - base; got != step.want {
					t.Fatalf("after %s, %d mappings are held, want %d", step.name, got, step.want)
				}
			}
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
			if got, want := heap.MappingCount()-base, heapTables+o.tables+o.access; got != want {
				t.Fatalf("a %s demographics cell holds %d mappings, want %d: the heap's, the owner table and CG's tables", o.spec, got, want)
			}
		})
	})
}

// residentPages reports how many of b's pages the kernel holds in
// memory, where a test file for this system sets it.
var residentPages func(b []byte) int

// TestResetShardHoldsFreshMappings: a reset shard starts its next cell
// as a new one does. Under every spec of the grammar, a cell that ran a
// cycle is reset (Runtime.Reset, which resets the heap), and the shard
// then holds exactly the mappings vm.New(heap.New(n), ev) holds, table
// for table and of the same sizes, with none of their pages resident:
// what the last cell wrote went with its mappings, and nothing writes a
// fresh table before its cell does.
func TestResetShardHoldsFreshMappings(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cleanup runs mid-count
	const arena = 1 << 20
	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			events := func() vm.Events {
				ev, err := collectors.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				return ev
			}
			mapped := func(rt *vm.Runtime) (caps []string) {
				for _, tab := range tablesOf(rt) {
					if tab.s.Cap() > 0 {
						caps = append(caps, fmt.Sprintf("%s:%d", tab.name, tab.s.Cap()))
					}
				}
				return caps
			}
			base := collected(-1)
			fresh := vm.New(heap.New(arena), events())
			want, wantCaps := heap.MappingCount()-base, mapped(fresh)
			fresh.Release()
			if int64(len(wantCaps)) != want {
				t.Fatalf("a new shard holds %d mappings but %d tables %v: a table is missing from tablesOf", want, len(wantCaps), wantCaps)
			}

			rt := vm.New(heap.New(arena), events())
			node := rt.Heap.DefineClass(heap.Class{Name: "Node", Refs: 1})
			f := rt.NewThread(1).Top()
			for i := 0; i < 10_000; i++ {
				f.PutField(f.MustNew(node), 0, f.MustNew(node))
			}
			rt.ForceCollect()
			rt.Reset(events())
			defer rt.Release()
			if got := heap.MappingCount() - base; got != want {
				t.Fatalf("a reset shard holds %d mappings, a new one %d", got, want)
			}
			if got := mapped(rt); !slices.Equal(got, wantCaps) {
				t.Fatalf("a reset shard holds tables %v, a new one %v", got, wantCaps)
			}
			if residentPages == nil {
				return
			}
			for _, tab := range tablesOf(rt) {
				if tab.name == "Arena.partial" {
					continue // every list head is written -1 when reserved, as in a new arena
				}
				if n := residentPages(tab.bytes(false)); n != 0 {
					t.Errorf("%s: %d pages of the reset shard's fresh mapping are resident", tab.name, n)
				}
			}
		})
	}
}
