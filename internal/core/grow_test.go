package core

import (
	"testing"

	"repro/internal/heap"
)

// TestSideTablesFollowHandleTable scripts allocations and contaminations
// against a model and stops at every growth step of the heap's handle
// table: meta — the forest is inside it — must stand at exactly the
// heap's HandleCap (one growth rule, applied in one place) and sets at
// the set count — one slot per set of the model, plus the one an object
// is born in and its putfield frees — every set formed so far must have
// survived the copy, and every entry a step uncovered must read as zero,
// which the forest reads as a root naming no set. The second pass runs
// on the runtime the first left, reset, and grows past its capacity.
func TestSideTablesFollowHandleTable(t *testing.T) {
	cfg := Config{StaticOpt: true}
	rt, cg, node := newRT(t, cfg, 1<<22)
	for pass, objects := range []int{700, 3000} {
		if pass > 0 {
			cg = New(cfg)
			rt.Reset(cg) // unmaps the first collector's tables, maps the second's
			node = rt.Heap.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
		}
		h := rt.Heap
		f := rt.NewThread(1).Top()
		var ids []heap.HandleID // ids[i] and ids[i-1] share a set unless i%4 == 0
		steps := 0
		for i := 0; i < objects; i++ {
			before := h.HandleCap()
			id := f.MustNew(node)
			f.SetLocal(0, id)
			if i%4 != 0 {
				f.PutField(id, 0, ids[i-1])
			}
			ids = append(ids, id)
			if n := h.HandleCap(); len(cg.meta) != n {
				t.Fatalf("pass %d, %d objects: HandleCap %d but meta %d",
					pass, i+1, n, len(cg.meta))
			}
			sets, spare := i/4+1, 0
			if i%4 != 0 {
				spare = 1 // the slot id was born in, free since the putfield
			}
			if live, free, total := slotCounts(cg); live != sets || free != spare || total != sets+spare {
				t.Fatalf("pass %d, %d objects in %d sets: %d live + %d free of %d slots",
					pass, i+1, sets, live, free, total)
			}
			if h.HandleCap() == before {
				continue
			}
			steps++
			for j, o := range ids {
				want := min(4, len(ids)-j/4*4) // sets are runs of four, the last one still filling
				if cg.SetSize(o) != want || cg.DependentFrame(o) != f || (j%4 != 0 && !cg.SameSet(o, ids[j-1])) {
					t.Fatalf("pass %d, growth to %d: object %d of %d is in a set of %d on frame %d, want %d on frame %d",
						pass, h.HandleCap(), j, len(ids), cg.SetSize(o), cg.DependentFrame(o).ID, want, f.ID)
				}
			}
			for k := h.NumHandles(); k < h.HandleCap(); k++ {
				if cg.meta[k] != (objMeta{}) || cg.find(heap.HandleID(k)) != heap.HandleID(k) {
					t.Fatalf("pass %d, growth to %d: uncovered entry %d reads meta %+v, root %d",
						pass, h.HandleCap(), k, cg.meta[k], cg.find(heap.HandleID(k)))
				}
			}
		}
		if steps < 10 {
			t.Fatalf("pass %d: %d objects took %d growth steps, want at least 10", pass, objects, steps)
		}
	}
}
