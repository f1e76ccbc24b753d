package heap_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/results"
	"repro/internal/vm"
	"repro/internal/workload"
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
// size 10), a small-then-large sequence on one shard reset between them and a heap whose
// shifting extent lengths carve past the slab's reservation twice: on
// mapped tables, and with MapTable mapping nothing, as under -race
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
		// The large cell runs on the shard the small one ran on, reset:
		// regrowth over a reset heap.
		jess, err := workload.ByName("jess")
		if err != nil {
			t.Fatal(err)
		}
		var rt *vm.Runtime
		for _, size := range []int{1, 10} {
			job := engine.Job{Workload: "jess", Size: size, Collector: "cg+recycle", HeapBytes: 1 << 24, GCEvery: 5000}
			ev, err := collectors.New(job.Collector)
			if err != nil {
				t.Fatal(err)
			}
			ev.GCEvery = job.GCEvery
			if rt == nil {
				rt = vm.New(heap.New(job.HeapBytes), ev)
			} else {
				rt.Reset(ev)
			}
			jess.Run(rt, size)
			states = append(states, endState(t, engine.Result{Job: job, RT: rt, Col: ev.Collector}))
		}
		rt.Release()
		h, state := shifting(t)
		if h.SlabInMapping() {
			t.Error("the shifting heap's slab is still in its mapping: it never fell back to Grow")
		}
		return append(states, state)
	}
	if !heap.New(64 << 10).SlabInMapping() {
		t.Skip("no mapping on this build or host: both runs would take the grown path")
	}
	mapped := run()
	heap.SetMapOff(true)
	defer heap.SetMapOff(false)
	probe := heap.New(64 << 10)
	if heap.MapTable[uint64](probe, 1) != nil {
		t.Fatal("MapTable maps with mapping switched off")
	}
	probe.Release()
	grown := run()
	for i := range mapped {
		if mapped[i] != grown[i] {
			t.Errorf("cell %d differs:\nmapped %s\ngrown  %s", i, mapped[i], grown[i])
		}
	}
}

// table is one of the slices a cell's tables are held in, as its owner
// holds it. appended marks the tables an owner truncates and appends
// whole records to again (CG's set records, the engine's DFS stack,
// gen's remembered list): past their length they hold what the cell
// wrote, and no one grows them over it.
type table struct {
	name     string
	s        reflect.Value
	appended bool
}

// bytes returns the table's backing array through its capacity, or
// only past its length.
func (t table) bytes(pastLength bool) []byte {
	size := int(t.s.Type().Elem().Size())
	b := unsafe.Slice((*byte)(t.s.UnsafePointer()), t.s.Cap()*size)
	if pastLength {
		b = b[t.s.Len()*size:]
	}
	return b
}

// tablesOf lists every table a runtime's cell holds: its heap's and its
// arena's, its owner table, its collector's and its mark–sweep engine's scratch.
// They are unexported fields, so they are read through reflect.
func tablesOf(rt *vm.Runtime) []table {
	var ts []table
	add := func(owner reflect.Value, appended bool, names ...string) {
		for _, n := range names {
			ts = append(ts, table{owner.Type().Name() + "." + n, owner.FieldByName(n), appended})
		}
	}
	add(reflect.ValueOf(rt.Heap).Elem(), false, "handles", "liveBits", "slab")
	// partial stands for the heads table it shares with cached.
	add(reflect.ValueOf(rt.Heap.Arena()).Elem(), false, "slabs", "partial")
	add(reflect.ValueOf(rt).Elem(), false, "owners")
	c := reflect.ValueOf(rt.Collector())
	var engine reflect.Value
	switch rt.Collector().(type) {
	case *core.CG:
		add(c.Elem(), false, "meta", "oldFrames")
		add(c.Elem(), true, "sets")
		engine = c.Elem().FieldByName("msa")
	case *gengc.System:
		add(c.Elem(), false, "flags")
		add(c.Elem(), true, "remembered")
		engine = c.Elem().FieldByName("m")
	case *msa.System:
		engine = c.Elem().FieldByName("m")
	}
	if engine.IsValid() && !engine.IsNil() {
		add(engine.Elem(), false, "mark")
		add(engine.Elem(), true, "work")
	}
	return ts
}

// firstNonZero reports the offset of b's first non-zero byte, -1 if none.
func firstNonZero(b []byte) int {
	var page [4096]byte
	for off := 0; off < len(b); off += len(page) {
		chunk := b[off:min(off+len(page), len(b))]
		if !bytes.Equal(chunk, page[:len(chunk)]) {
			return off + bytes.IndexFunc(chunk, func(r rune) bool { return r != 0 })
		}
	}
	return -1
}

// TestTablesReadZeroPastTheirLength pins what lets heap.Grow reuse
// capacity without clearing it: every table a cell grows with Grow is
// born zero and lives one cell, and no owner truncates it and grows it
// again, so past its length it reads zero. jess at size 100 on its
// tight heap collects and compacts under msa, gen and cg+recycle; it
// runs on a new shard and again on the same shard reset, and at every
// growth step of the handle table, and at the end of each cell, the
// heap's tables, the runtime's owner table, the collector's
// handle-indexed tables and the engine's mark bits read zero from their
// length to their capacity — the whole mapping where there is one.
func TestTablesReadZeroPastTheirLength(t *testing.T) {
	if testing.Short() {
		t.Skip("size-100 cells")
	}
	spec, err := workload.ByName("jess")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"msa", "gen", "cg+recycle"} {
		t.Run(c, func(t *testing.T) {
			var rt *vm.Runtime
			check := func(when string) {
				t.Helper()
				for _, tab := range tablesOf(rt) {
					if tab.appended {
						continue
					}
					if off := firstNonZero(tab.bytes(true)); off >= 0 {
						t.Fatalf("%s: %s (len %d, cap %d) reads non-zero at byte %d past its length",
							when, tab.name, tab.s.Len(), tab.s.Cap(), off)
					}
				}
			}
			// events is c's event table with every allocation checking
			// the tables when the handle table has grown.
			events := func(cell string) vm.Events {
				ev, err := collectors.New(c)
				if err != nil {
					t.Fatal(err)
				}
				last, alloc := 0, ev.Alloc
				ev.Alloc = func(id heap.HandleID, f *vm.Frame) {
					if alloc != nil {
						alloc(id, f)
					}
					if n := rt.Heap.HandleCap(); n != last {
						last = n
						check(fmt.Sprintf("%s, growth to %d handles", cell, n))
					}
				}
				return ev
			}
			for _, cell := range []string{"a new shard", "a reset shard"} {
				if rt == nil {
					rt = vm.New(heap.New(spec.HeapBytes(100)), events(cell))
				} else {
					rt.Reset(events(cell))
				}
				spec.Run(rt, 100)
				check(cell + ", the cell's end")
				if rt.GCCycles() == 0 || rt.Heap.Stats().Compactions == 0 {
					t.Fatalf("%s: %d cycles, %d compactions: the cell no longer collects and compacts",
						cell, rt.GCCycles(), rt.Heap.Stats().Compactions)
				}
			}
			rt.Release()
		})
	}
}
