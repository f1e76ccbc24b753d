// Package gengc implements a two-generation collector, the related-work
// baseline the thesis positions CG against (§1.1: "traditional
// generational collection defines a generation by the longevity of its
// objects"). It exists for the ablation benchmarks: CG clusters objects
// by *expected expiration* (dependent frames), generational collection by
// *age* — the experiments contrast the two on identical workloads.
//
// Design: objects are born young; a minor collection marks the young
// generation from the runtime roots plus a remembered set of old objects
// holding references into the young generation (maintained by the OnRef
// write barrier), sweeps unmarked young objects, and promotes survivors
// after PromoteAfter minor cycles. When a minor collection reclaims
// little, a major (full mark–sweep) collection runs and the remembered
// set is rebuilt by scanning the old generation.
//
// The remembered set is a bit beside the generation bit in each
// handle's flags byte plus a list of the ids that set it, in insertion
// order: membership is one load, insertion one store and one append, and
// every walk is deterministic (DESIGN.md §7).
package gengc

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/heap"
	"repro/internal/vm"
)

// PromoteAfter is the number of minor collections an object must
// survive before promotion to the old generation.
const PromoteAfter = 2

// minorYieldNum/minorYieldDen: a minor collection that frees fewer than
// num/den of the young population triggers a major collection.
const (
	minorYieldNum = 1
	minorYieldDen = 10
)

// The bits of System.flags.
const (
	flagOld        uint8 = 1 << iota // the object is in the old generation
	flagRemembered                   // the object is on the remembered list
)

// Stats aggregates generational activity.
type Stats struct {
	Minor      int    // minor cycles
	Major      int    // major cycles
	FreedYoung uint64 // objects reclaimed by minor collections
	FreedOld   uint64 // objects reclaimed by major collections (both gens)
	Promoted   uint64 // young objects tenured
	Remembered uint64 // write-barrier insertions
}

// Merge accumulates o into s (order-independent shard aggregation).
func (s *Stats) Merge(o Stats) {
	s.Minor += o.Minor
	s.Major += o.Major
	s.FreedYoung += o.FreedYoung
	s.FreedOld += o.FreedOld
	s.Promoted += o.Promoted
	s.Remembered += o.Remembered
}

// System is the generational collector; it implements vm.Collector.
// Its event table subscribes exactly the two slots generational
// collection needs — Alloc (birth bookkeeping) and Ref (the write
// barrier) — plus the Collect capability; returns, frame pops, static
// stores and object touches cost it nothing under the event-table ABI.
type System struct {
	rt *vm.Runtime

	flags     []uint8 // flagOld | flagRemembered per handle
	survivals []uint8
	mark      heap.Bitset // word-packed mark scratch
	// remembered lists the ids that set flagRemembered: old objects
	// that may reference young ones. An id whose bit handle reuse
	// cleared stays listed until the next cycle compacts the list.
	remembered []heap.HandleID
	work       []heap.HandleID
	tab        *genTables // pooled carrier the tables came from
	stats      Stats
}

// genTables is the recyclable allocation footprint of one generational
// system — flag bytes, survival counters, mark scratch, the remembered
// list and the DFS stack — pooled across matrix cells through the
// event table's Detach path, mirroring core's table pool.
type genTables struct {
	flags      []uint8
	survivals  []uint8
	mark       heap.Bitset
	remembered []heap.HandleID
	work       []heap.HandleID
	// maps is the mapping flags, survivals and remembered were drawn
	// from, at its full capacity (empty while they are Go slices); unmap
	// releases it when the tables are dropped (see mapTables).
	maps  mappedTables
	unmap runtime.Cleanup
}

// mappedTables holds what mapTables drew from heap.Mapped.
type mappedTables struct {
	flags, survivals []uint8
	remembered       []heap.HandleID
}

func (m mappedTables) release() {
	heap.Unmap(m.flags)
	heap.Unmap(m.survivals)
	heap.Unmap(m.remembered)
}

// mapTables draws the per-handle tables from heap.Mapped at the attached
// heap's handle bound, as core's are: no HandleCap exceeds it, and the
// remembered list names an id at most once but for the stale entries of
// reused handles (only an append past the bound would move it, as it
// would any slice). A pooled mapping too small for this heap is released
// at once; where there is no mapping to be had the tables stay what they
// were, and heap.Grow and append double them.
func (t *genTables) mapTables(bound int) {
	m := mappedTables{heap.Mapped[uint8](bound), heap.Mapped[uint8](bound), heap.Mapped[heap.HandleID](bound)}
	if m.flags == nil || m.survivals == nil || m.remembered == nil {
		m.release()
		return
	}
	t.unmap.Stop()
	t.maps.release()
	t.maps, t.flags, t.survivals, t.remembered = m, m.flags, m.survivals, m.remembered
	t.unmap = runtime.AddCleanup(t, mappedTables.release, m)
}

var genTablePool = sync.Pool{New: func() any { return new(genTables) }}

// New returns an unattached generational system; pass it to vm.New.
// The side tables are drawn from the pool at Attach, not here.
func New() *System { return &System{} }

// Name identifies the collector in experiment output: its spec, "gen".
func (g *System) Name() string { return "gen" }

// Events implements vm.Collector.
func (g *System) Events() vm.Events {
	return vm.Events{
		Name:      g.Name(),
		Attach:    g.Attach,
		Detach:    g.detach,
		Alloc:     g.OnAlloc,
		Ref:       g.OnRef,
		Collect:   g.Collect,
		Collector: g,
	}
}

// Attach binds the system to rt (the descriptor's Attach hook),
// drawing side tables from the pool. Truncated tables are observably
// fresh: OnAlloc regrows flags/survivals zeroed (heap.Grow) and the
// remembered list was truncated at detach.
func (g *System) Attach(rt *vm.Runtime) {
	g.rt = rt
	t := genTablePool.Get().(*genTables)
	g.tab = t
	if bound := rt.Heap.HandleBound(); cap(t.maps.flags) < bound {
		t.mapTables(bound)
	}
	g.flags = t.flags[:0]
	g.survivals = t.survivals[:0]
	g.mark = t.mark
	g.remembered = t.remembered[:0]
	g.work = t.work
}

// detach implements the event table's Detach capability: the runtime
// is replacing this collector, so its side tables go back to the pool.
// The system must not be queried afterwards; fields are nilled so a
// violation fails loudly. None of the tables carries pointers into the
// shard (handle IDs are indices), so pooling pins nothing.
func (g *System) detach() {
	t := g.tab
	if t == nil {
		return
	}
	g.tab = nil
	t.flags = g.flags[:0]
	t.survivals = g.survivals[:0]
	t.mark = g.mark
	t.work = g.work[:0]
	t.remembered = g.remembered[:0]
	g.rt = nil
	g.flags, g.survivals, g.mark = nil, nil, nil
	g.remembered, g.work = nil, nil
	genTablePool.Put(t)
}

// Stats returns a copy of the counters.
func (g *System) Stats() Stats { return g.stats }

// OnAlloc is the Alloc slot: objects are born young. The flag and
// survival tables follow the handle table's capacity in one step. The
// flags store also takes a reused handle off the remembered set; its
// stale list entry drops out at the next compaction.
func (g *System) OnAlloc(id heap.HandleID, _ *vm.Frame) {
	if int(id) >= len(g.flags) {
		n := g.rt.Heap.HandleCap()
		g.flags = heap.Grow(g.flags, n, n)
		g.survivals = heap.Grow(g.survivals, n, n)
	}
	g.flags[int(id)] = 0
	g.survivals[int(id)] = 0
}

// OnRef is the Ref slot: the write barrier. An old object
// acquiring a reference to a young one joins the remembered set.
func (g *System) OnRef(src, dst heap.HandleID) {
	if g.flags[int(src)]&(flagOld|flagRemembered) == flagOld && g.flags[int(dst)]&flagOld == 0 {
		g.remember(src)
	}
}

// remember adds id, old and not yet remembered, to the remembered set.
func (g *System) remember(id heap.HandleID) {
	g.flags[int(id)] |= flagRemembered
	g.remembered = append(g.remembered, id)
	g.stats.Remembered++
}

// compactRemembered drops the list entries whose bit handle reuse
// cleared, and the later entry of an id remembered again after reuse:
// the first pass lowers the bit of each id it keeps, so a duplicate
// finds it down; the second raises it again.
func (g *System) compactRemembered() {
	kept := g.remembered[:0]
	for _, id := range g.remembered {
		if g.flags[int(id)]&flagRemembered != 0 {
			g.flags[int(id)] &^= flagRemembered
			kept = append(kept, id)
		}
	}
	for _, id := range kept {
		g.flags[int(id)] |= flagRemembered
	}
	g.remembered = kept
}

// pointsYoung reports whether id holds a reference into the young
// generation.
func (g *System) pointsYoung(id heap.HandleID) bool {
	for _, dst := range g.rt.Heap.RefSlots(id) {
		if dst != heap.Nil && g.flags[int(dst)]&flagOld == 0 {
			return true
		}
	}
	return false
}

// Collect is the collection capability: minor first, escalating to major when
// the minor yield is poor.
func (g *System) Collect() int {
	young := 0
	g.rt.Heap.ForEachLive(func(id heap.HandleID) {
		if g.flags[int(id)]&flagOld == 0 {
			young++
		}
	})
	freed := g.minor()
	if freed*minorYieldDen < young*minorYieldNum {
		freed += g.major()
	}
	return freed
}

func (g *System) resetMarks() {
	g.rt.Heap.ResetMarks(&g.mark)
}

// minor collects the young generation only.
func (g *System) minor() int {
	g.stats.Minor++
	h := g.rt.Heap
	g.resetMarks()
	// Roots: stacks and statics, traversing young objects only.
	g.rt.EachRootFrame(func(_ *vm.Frame, roots []heap.HandleID) {
		for _, r := range roots {
			if r != heap.Nil {
				g.markYoung(r)
			}
		}
	})
	// Remembered set: old objects whose fields may reach young objects
	// (a set bit implies flagOld; only OnAlloc lowers that).
	g.compactRemembered()
	for _, src := range g.remembered {
		if h.Live(src) {
			h.Refs(src, g.markYoung)
		}
	}
	// Mark/sweep boundary for the cycle timeline (last pass wins, so an
	// escalated minor+major cycle reports the major's boundary).
	g.rt.Timeline().CycleMarkDone(0)
	// Sweep unmarked young; age and possibly promote survivors.
	freed := 0
	h.ForEachLive(func(id heap.HandleID) {
		i := int(id)
		if g.flags[i]&flagOld != 0 {
			return
		}
		if !g.mark.Has(i) {
			h.Free(id)
			freed++
			return
		}
		if g.survivals[i]++; g.survivals[i] >= PromoteAfter {
			g.promote(id)
		}
	})
	g.stats.FreedYoung += uint64(freed)
	return freed
}

// markYoung marks young objects reachable from id without crossing into
// the old generation (old→young edges are covered by the remembered set).
func (g *System) markYoung(id heap.HandleID) {
	if g.flags[int(id)]&flagOld != 0 || g.mark.Has(int(id)) {
		return
	}
	h := g.rt.Heap
	g.mark.Set(int(id))
	g.work = append(g.work[:0], id)
	for len(g.work) > 0 {
		src := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, dst := range h.RefSlots(src) {
			if dst != heap.Nil && g.flags[int(dst)]&flagOld == 0 && !g.mark.Has(int(dst)) {
				g.mark.Set(int(dst))
				g.work = append(g.work, dst)
			}
		}
	}
}

// promote tenures id, adding it to the remembered set if it still holds
// references into the young generation.
func (g *System) promote(id heap.HandleID) {
	g.flags[int(id)] |= flagOld
	g.stats.Promoted++
	if g.flags[int(id)]&flagRemembered == 0 && g.pointsYoung(id) {
		g.remember(id)
	}
}

// major is a full mark–sweep over both generations, after which the
// remembered set is rebuilt from the surviving old generation.
func (g *System) major() int {
	g.stats.Major++
	h := g.rt.Heap
	g.resetMarks()
	g.rt.EachRootFrame(func(_ *vm.Frame, roots []heap.HandleID) {
		for _, r := range roots {
			if r != heap.Nil {
				g.markAll(r)
			}
		}
	})
	g.rt.Timeline().CycleMarkDone(0)
	// Word-at-a-time sweep: garbage in a 64-handle window is one
	// live&^mark (the same find-next-zero walk the msa sweep performs).
	freed := 0
	live := h.LiveWords()
	for k, lw := range live {
		garbage := lw &^ g.mark[k]
		base := k << 6
		// No per-object remembered-set work here: the rebuild below
		// clears the whole set before repopulating it.
		for garbage != 0 {
			id := heap.HandleID(base + bits.TrailingZeros64(garbage))
			garbage &= garbage - 1
			h.Free(id)
			freed++
		}
	}
	g.stats.FreedOld += uint64(freed)
	// Rebuild the remembered set exactly, in handle order. Stats.Remembered
	// counts the barrier's and promote's insertions, not the rebuild's.
	for _, id := range g.remembered {
		g.flags[int(id)] &^= flagRemembered
	}
	g.remembered = g.remembered[:0]
	h.ForEachLive(func(id heap.HandleID) {
		if g.flags[int(id)]&flagOld != 0 && g.pointsYoung(id) {
			g.flags[int(id)] |= flagRemembered
			g.remembered = append(g.remembered, id)
		}
	})
	return freed
}

// markAll marks everything reachable from id across both generations.
func (g *System) markAll(id heap.HandleID) {
	if g.mark.Has(int(id)) {
		return
	}
	h := g.rt.Heap
	g.mark.Set(int(id))
	g.work = append(g.work[:0], id)
	for len(g.work) > 0 {
		src := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, dst := range h.RefSlots(src) {
			if dst != heap.Nil && !g.mark.Has(int(dst)) {
				g.mark.Set(int(dst))
				g.work = append(g.work, dst)
			}
		}
	}
}

var _ vm.Collector = (*System)(nil)
