package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/unionfind"
	"repro/internal/vm"
)

// forestModel is the differential oracle for the forest folded into
// objMeta: a unionfind.DSU over handle ids, driven by the same script as
// the CG under test, plus which ids the script knows to be alive.
type forestModel struct {
	dsu  *unionfind.DSU
	live map[heap.HandleID]bool
}

func (m *forestModel) born(id heap.HandleID) {
	m.dsu.MakeSet(int(id))
	m.dsu.Reset(int(id)) // a reused id: whatever still names it died with it
	m.live[id] = true
}

// rebuild is what a collection cycle does to the partition: every live
// object a singleton again, then one union per reference between them.
func (m *forestModel) rebuild(h *heap.Heap) {
	for id := range m.live {
		if !h.Live(id) {
			delete(m.live, id)
		}
	}
	for id := range m.live {
		m.dsu.Reset(int(id))
	}
	for id := range m.live {
		h.Refs(id, func(r heap.HandleID) { m.dsu.Union(int(id), int(r)) })
	}
}

// compare fails t unless c and the model hold the same partition of the
// same live objects: their representatives correspond one to one, every
// representative's link word names a live slot of c.sets, that slot's
// membership list is exactly the model's set, and the rank packed beside
// the slot obeys union by rank (a tree of rank r has at least 2^r
// members, saturated or not).
func (m *forestModel) compare(t *testing.T, c *CG, when string) {
	t.Helper()
	members := map[int][]heap.HandleID{} // model root -> its live set
	toModel := map[heap.HandleID]int{}   // CG representative -> model root
	fromModel := map[int]heap.HandleID{} // and back
	for id := range m.live {
		if c.IsTainted(id) || !c.heap.Live(id) {
			t.Fatalf("%s: the model holds %d live, CG has it dead", when, id)
		}
		mr, cr := m.dsu.Find(int(id)), c.find(id)
		members[mr] = append(members[mr], id)
		if prev, ok := toModel[cr]; ok && prev != mr {
			t.Fatalf("%s: CG joins %d (representative %d) with a set the model keeps apart", when, id, cr)
		}
		if prev, ok := fromModel[mr]; ok && prev != cr {
			t.Fatalf("%s: the model joins %d with the set of %d, CG resolves it to %d", when, id, prev, cr)
		}
		toModel[cr], fromModel[mr] = mr, cr
	}
	if n := c.heap.NumLive(); n != len(m.live) {
		t.Fatalf("%s: the heap holds %d objects, the model %d", when, n, len(m.live))
	}
	for cr, mr := range toModel {
		want := members[mr]
		link := c.meta[cr].link
		if link >= 0 {
			t.Fatalf("%s: representative %d has link %d", when, cr, link)
		}
		slot, rank := -link>>rankBits, -link&rankMask
		if slot <= 0 || int(slot) >= len(c.sets) || c.sets[slot].size == 0 {
			t.Fatalf("%s: representative %d names slot %d, not a live slot of %d", when, cr, slot, len(c.sets))
		}
		if int(c.sets[slot].size) != len(want) || c.SetSize(cr) != len(want) {
			t.Fatalf("%s: set of %d has size %d, the model's has %d", when, cr, c.sets[slot].size, len(want))
		}
		if 1<<rank > len(want) {
			t.Fatalf("%s: representative %d has rank %d over %d members", when, cr, rank, len(want))
		}
		var got []heap.HandleID
		for o := c.sets[slot].head; o != heap.Nil && len(got) <= len(want); o = c.meta[o].next {
			got = append(got, o)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: slot %d lists %v, the model's set is %v", when, slot, got, want)
		}
	}
}

// TestForestAgreesWithDSU drives seeded random scripts — allocations,
// putfields between any two live objects (and putfields of null, so a
// cycle finds sets to split), calls four frames deep that pop with and
// without a returned object, forced collection cycles — through a CG and
// a unionfind.DSU side by side and compares them after every step that
// changes the partition. The DSU never hears about rank ceilings, slots
// or the link encoding; the plain and the resetting
// variant must match it.
func TestForestAgreesWithDSU(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cg", Config{StaticOpt: true, Checked: true}},
		{"cg+reset", Config{StaticOpt: true, ResetOnGC: true, Checked: true}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := &forestModel{dsu: unionfind.NewDSU(0), live: map[heap.HandleID]bool{}}
			var died []heap.HandleID
			cfg := tc.cfg
			cfg.FreeHook = func(id heap.HandleID) { died = append(died, id) }
			rt, cg, node := newRT(t, cfg, 1<<20)
			th := rt.NewThread(2)
			unions, cycles, pops := 0, 0, 0

			pick := func() heap.HandleID {
				ids := make([]heap.HandleID, 0, len(m.live))
				for id := range m.live {
					ids = append(ids, id)
				}
				slices.Sort(ids) // map order must not reach the script
				return ids[rng.Intn(len(ids))]
			}
			// reap takes what the last pop freed out of the model. An
			// equilive set dies whole: nothing the model still holds
			// live may share a set with the dead.
			reap := func(when string) {
				dead := map[int]bool{}
				for _, id := range died {
					delete(m.live, id)
					dead[m.dsu.Find(int(id))] = true
				}
				died = died[:0] // ids are reused: a stale entry would kill its next tenant
				for id := range m.live {
					if dead[m.dsu.Find(int(id))] {
						t.Fatalf("%s: %d outlived the pop that freed part of its set", when, id)
					}
				}
				pops++
				m.compare(t, cg, when+": frame pop")
			}
			var body func(f *vm.Frame, depth int) heap.HandleID
			body = func(f *vm.Frame, depth int) heap.HandleID {
				var mine []heap.HandleID
				for step, steps := 0, 5+rng.Intn(25); step < steps; step++ {
					when := fmt.Sprintf("%s seed %d", tc.name, seed)
					switch op := rng.Intn(20); {
					case op < 8 || len(m.live) < 2:
						id := f.MustNew(node)
						m.born(id)
						mine = append(mine, id)
					case op < 14:
						x, y := pick(), pick()
						f.PutField(x, rng.Intn(2), y)
						m.dsu.Union(int(x), int(y))
						unions++
						m.compare(t, cg, when+": putfield")
					case op < 16:
						f.PutField(pick(), rng.Intn(2), heap.Nil)
					case op < 19 && depth < 4:
						th.Call(2, func(g *vm.Frame) heap.HandleID { return body(g, depth+1) })
						reap(when)
					case op == 19:
						rt.ForceCollect()
						cycles++
						m.rebuild(rt.Heap)
						m.compare(t, cg, when+": cycle")
					}
				}
				if len(mine) > 0 && rng.Intn(2) == 0 {
					return mine[rng.Intn(len(mine))]
				}
				return heap.Nil
			}
			for round := 0; round < 12; round++ {
				th.Call(2, func(f *vm.Frame) heap.HandleID { return body(f, 1) })
				reap(fmt.Sprintf("%s seed %d, round %d", tc.name, seed, round))
			}
			if unions < 50 || cycles < 3 || pops < 10 || cg.Stats().Unions == 0 {
				t.Fatalf("%s seed %d exercised too little: %d putfields (%d unions), %d cycles, %d pops",
					tc.name, seed, unions, cg.Stats().Unions, cycles, pops)
			}
		}
	}
}

// TestRankSaturates builds a tree of rank 15 by balanced merging — 2^15
// singletons, paired level by level — and then keeps merging equal-rank
// trees: the rank stays at the ceiling (§3.5, "maintained so that the
// rank never exceeds a predetermined threshold"), the slot beside it
// stays intact, every object still resolves to the one set, and a find
// leaves the object it was called on linked straight to the root.
func TestRankSaturates(t *testing.T) {
	const leaves = 1 << (rankMask + 2) // two more levels than the ceiling counts
	rt, cg, node := newRT(t, checkedCfg(), 8<<20)
	f := rt.NewThread(0).Top()
	ids := make([]heap.HandleID, leaves)
	for i := range ids {
		ids[i] = f.MustNew(node)
		f.Forget(ids[i])
	}
	for stride := 1; stride < leaves; stride *= 2 {
		for i := 0; i+stride < leaves; i += 2 * stride {
			cg.contaminate(ids[i], ids[i+stride])
		}
	}
	root := cg.find(ids[0])
	link := cg.meta[root].link
	if rank := -link & rankMask; rank != rankMask {
		t.Fatalf("rank after %d balanced levels is %d, want the ceiling %d", rankMask+2, rank, rankMask)
	}
	if slot := -link >> rankBits; cg.sets[slot].size != leaves || cg.SetSize(ids[leaves-1]) != leaves {
		t.Fatalf("the merged set's slot %d records %d members, want %d", slot, cg.sets[slot].size, leaves)
	}
	for _, id := range ids {
		if cg.find(id) != root {
			t.Fatalf("object %d resolves to %d, want %d", id, cg.find(id), root)
		}
		if id != root && cg.meta[id].link != int32(root) {
			t.Fatalf("find left object %d linked to %d, not to its root %d: no path compression", id, cg.meta[id].link, root)
		}
	}
	checkSets(t, cg)
}

// TestNoForestBesideTheRecord: nothing reachable from a CG value is a
// unionfind type — the package is this file's oracle and the frozen
// benchmark probes' subject, not something the collector runs.
func TestNoForestBesideTheRecord(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if strings.HasSuffix(ty.PkgPath(), "internal/unionfind") {
			t.Errorf("%s is %s", path, ty)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Func:
			for i := 0; i < ty.NumIn(); i++ {
				walk(ty.In(i), path+"(in)")
			}
			for i := 0; i < ty.NumOut(); i++ {
				walk(ty.Out(i), path+"(out)")
			}
		}
	}
	walk(reflect.TypeOf(CG{}), "CG")
	if len(seen) < 20 {
		t.Fatalf("the walk saw %d types; it should have crossed the runtime and the heap", len(seen))
	}
}
