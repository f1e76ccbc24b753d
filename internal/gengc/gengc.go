// Package gengc implements a two-generation collector, the related-work
// baseline the thesis positions CG against (§1.1: "traditional
// generational collection defines a generation by the longevity of its
// objects"). It exists for the ablation benchmarks: CG clusters objects
// by *expected expiration* (dependent frames), generational collection by
// *age* — the experiments contrast the two on identical workloads.
//
// Design: objects are born young. Every cycle runs on the one
// mark–sweep engine, msa.Collector, the one CG rebuilds its sets on
// (DESIGN.md §7). A minor collection is one engine cycle whose Begin
// pre-marks the old generation, so the mark neither enters nor frees
// it, and whose Scan is a remembered set of old objects holding
// references into the young generation (maintained by the OnRef write
// barrier): their referents are traced as roots beside the frames'.
// The young objects the mark missed are swept, and the survivors age
// and are promoted after PromoteAfter minor cycles. When a minor
// collection reclaims little, a major collection — a plain engine
// cycle over both generations — runs and the remembered set is rebuilt
// by scanning the old generation.
//
// An object's generation, its remembered bit and its age share one
// flags byte per handle; the remembered set is that bit plus a list of
// the ids that set it, in insertion order: membership is one load,
// insertion one store and one append, and every walk is deterministic
// (DESIGN.md §7).
package gengc

import (
	"repro/internal/heap"
	"repro/internal/msa"
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

// The fields of System.flags: the generation bit, the remembered bit,
// and above them a young object's age, the minor collections it has
// survived, in units of ageOne. A young object carries no other bit.
const (
	flagOld        uint8 = 1 << iota // the object is in the old generation
	flagRemembered                   // the object is on the remembered list
	ageOne                           // one survived minor collection
)

// The age field counts up to PromoteAfter: a threshold that overflows
// the byte does not compile.
const _ uint8 = PromoteAfter * ageOne

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
	m  *msa.Collector // the engine both collections run on

	flags []uint8 // flagOld | flagRemembered | age per handle
	// remembered lists the ids that set flagRemembered: old objects
	// that may reference young ones. An id whose bit handle reuse
	// cleared stays listed until the next cycle compacts the list.
	remembered []heap.HandleID
	// minorCycle is the minor collection's subscription, built once at
	// Attach so a cycle allocates nothing: preMark as Begin, and the
	// remembered list, set before each cycle, as Scan.
	minorCycle msa.Cycle
	young      int // the young population preMark counted
	stats      Stats
}

// New returns an unattached generational system; pass it to vm.New.
// The side tables are mapped at Attach, not here.
func New() *System { return &System{} }

// Events implements vm.Collector.
func (g *System) Events() vm.Events {
	return vm.Events{
		Attach:    g.Attach,
		Alloc:     g.OnAlloc,
		Ref:       g.OnRef,
		Collect:   g.Collect,
		Collector: g,
	}
}

// Attach binds the system to rt (the descriptor's Attach hook) and maps
// its side tables on the heap for the one cell the system serves, at the
// heap's handle bound: no HandleCap exceeds it, and the remembered list
// names an id at most once but for the stale entries of reused handles
// (only an append past the bound would move it, as it would any slice).
// The engine maps its scratch before its first cycle.
func (g *System) Attach(rt *vm.Runtime) {
	g.rt = rt
	g.m = msa.New(rt)
	bound := rt.Heap.HandleBound()
	g.flags = heap.MapTable[uint8](rt.Heap, bound)
	g.remembered = heap.MapTable[heap.HandleID](rt.Heap, bound)
	g.minorCycle = msa.Cycle{Begin: g.preMark}
}

// Stats returns a copy of the counters.
func (g *System) Stats() Stats { return g.stats }

// Engine exposes the mark–sweep engine both collections run on (stats).
func (g *System) Engine() *msa.Collector { return g.m }

// OnAlloc is the Alloc slot: objects are born young, aged zero, and
// off the remembered set — one store, which takes a reused handle off
// the set too; its stale list entry drops out at the next compaction.
// The flags follow the handle table's capacity in one step, grown as
// CG.grow grows its records, so they are resident only as far as the
// handles reach.
func (g *System) OnAlloc(id heap.HandleID, _ *vm.Frame) {
	if int(id) >= len(g.flags) {
		n := g.rt.Heap.HandleCap()
		g.flags = heap.Grow(g.flags, n, n)
	}
	g.flags[int(id)] = 0
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
	freed := g.minor()
	if freed*minorYieldDen < g.young*minorYieldNum {
		freed += g.major()
	}
	return freed
}

// minor collects the young generation only, in one engine cycle:
// preMark keeps the mark out of the old generation, and the remembered
// list's referents are the roots it adds (a set bit implies flagOld;
// only OnAlloc lowers that). Then one walk ages the survivors — every
// young object still live — and promotes those PromoteAfter minors old.
func (g *System) minor() int {
	g.stats.Minor++
	g.compactRemembered()
	g.minorCycle.Scan = g.remembered
	g.m.Reserve()
	freed := g.m.Collect(g.minorCycle)
	g.rt.Heap.ForEachLive(func(id heap.HandleID) {
		i := int(id)
		if g.flags[i]&flagOld != 0 {
			return
		}
		if g.flags[i] += ageOne; g.flags[i] >= PromoteAfter*ageOne {
			g.promote(id)
		}
	})
	g.stats.FreedYoung += uint64(freed)
	return freed
}

// preMark is the minor cycle's Begin slot: it marks the old generation
// and counts the young one.
func (g *System) preMark(mark heap.Bitset) {
	g.young = 0
	g.rt.Heap.ForEachLive(func(id heap.HandleID) {
		if g.flags[int(id)]&flagOld != 0 {
			mark.Set(int(id))
		} else {
			g.young++
		}
	})
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
// remembered set is rebuilt from the surviving old generation. The
// sweep does no per-object remembered-set work: the rebuild clears the
// whole set before repopulating it.
func (g *System) major() int {
	g.stats.Major++
	g.m.Reserve()
	freed := g.m.Collect(msa.Cycle{})
	g.stats.FreedOld += uint64(freed)
	// Rebuild the remembered set exactly, in handle order. Stats.Remembered
	// counts the barrier's and promote's insertions, not the rebuild's.
	for _, id := range g.remembered {
		g.flags[int(id)] &^= flagRemembered
	}
	g.remembered = g.remembered[:0]
	g.rt.Heap.ForEachLive(func(id heap.HandleID) {
		if g.flags[int(id)]&flagOld != 0 && g.pointsYoung(id) {
			g.flags[int(id)] |= flagRemembered
			g.remembered = append(g.remembered, id)
		}
	})
	return freed
}

var _ vm.Collector = (*System)(nil)
