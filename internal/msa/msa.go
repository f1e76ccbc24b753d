// Package msa implements the "traditional collector" of the thesis: an
// exact mark-and-sweep collector (MSA) over the handle table, rooted in
// the runtime stacks and static area ("the roots of computation", §1).
//
// Collector is the one engine that traces and sweeps the heap: every
// cycle of every collector runs on it. The collection cycle exposes
// observation points so the contaminated collector can verify and
// rebuild its equilive structures while the world is being traversed
// anyway — the resetting scheme of §3.6 — and so the generational
// collector can run its minor collection as a plain cycle: its Begin
// pre-marks the old generation, and its Scan list, the remembered set,
// adds roots. Observers subscribe through the Cycle descriptor, the
// collection-side analog of vm.Events: function-valued slots, nil
// meaning "unsubscribed". The subscription picks the mark loop: a cycle
// with no per-object/per-edge slots runs a tight, hook-free mark loop;
// a fully subscribed cycle pays one direct indirect call per event,
// never interface dispatch.
//
// Frames are visited oldest-first (static pseudo-frame, then each
// thread's stack bottom-up), so the first frame to reach an object is
// the oldest frame that references it: the conservative dependent frame
// CG wants.
package msa

import (
	"math/bits"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Cycle describes what an observer wants from one collection cycle —
// the descriptor that replaced the five-method Hooks interface. Every
// slot is optional; the zero value observes nothing and selects the
// flat mark path.
type Cycle struct {
	// Begin fires before marking starts, with the cycle's mark bits, all
	// clear. An object it marks is neither traced nor freed.
	Begin func(mark heap.Bitset)
	// Scan lists objects whose referents are traced as roots after the
	// frames'; an entry that is no longer live is skipped.
	Scan []heap.HandleID
	// Reached fires the first time the mark phase visits id; f is the
	// root frame whose traversal reached it first, nil for an object
	// first reached from a Scan entry.
	Reached func(id heap.HandleID, f *vm.Frame)
	// Edge fires for every reference src -> dst the traversal follows
	// (dst may already be marked).
	Edge func(src, dst heap.HandleID)
	// WillFree fires during the sweep for every unmarked object, just
	// before the heap extent is released.
	WillFree func(id heap.HandleID)
	// End fires after the sweep with the number of objects freed.
	End func(freed int)
}

// Stats aggregates collector activity across cycles.
type Stats struct {
	Cycles     int    // collections performed
	Marked     uint64 // cumulative objects marked (cache-pollution proxy)
	Freed      uint64 // cumulative objects swept
	EdgeVisits uint64 // cumulative reference traversals
}

// Merge accumulates o into s (order-independent shard aggregation).
func (s *Stats) Merge(o Stats) {
	s.Cycles += o.Cycles
	s.Marked += o.Marked
	s.Freed += o.Freed
	s.EdgeVisits += o.EdgeVisits
}

// Collector is the mark–sweep engine. It holds no policy about *when*
// to collect; the runtime (or a wrapping collector) decides that.
type Collector struct {
	rt    *vm.Runtime
	stats Stats
	mark  heap.Bitset     // scratch mark bits, indexed by HandleID
	work  []heap.HandleID // scratch DFS stack
}

// New returns a mark–sweep engine bound to rt. It holds no scratch
// until Reserve.
func New(rt *vm.Runtime) *Collector { return &Collector{rt: rt} }

// Reserve maps the engine's scratch on the heap at its handle bound,
// before its first cycle: the mark bits cover every id, and the stack
// holds each marked object at most once. The heap unmaps it with its
// own tables when the cell ends. Its collector calls it before every
// Collect rather than at Attach, since only a cycle writes the scratch
// and most cells never collect, and Collect does not call it, since
// the committed profile's inlining is fitted to Collect's body
// (DESIGN.md §5 "Profile-guided builds"). A cycle on an engine never
// reserved grows its scratch on the Go heap.
func (m *Collector) Reserve() {
	if m.mark != nil {
		return
	}
	bound := m.rt.Heap.HandleBound()
	m.mark = heap.MapTable[uint64](m.rt.Heap, heap.BitsetWords(bound))
	m.work = heap.MapTable[heap.HandleID](m.rt.Heap, bound)
}

// Stats returns a copy of the counters.
func (m *Collector) Stats() Stats { return m.stats }

// Collect runs one full mark–sweep cycle, firing the cycle descriptor's
// subscribed slots throughout, and returns the number of objects freed.
//
// The mark phase picks the cheapest loop the subscription allows: with
// no Reached/Edge slot it runs hook-free — zero calls per edge; with
// either slot bound it runs the devirtualized loop that fires them in
// the exact oldest-first DFS event order the rebuild observers depend
// on.
//
// The sweep phase is word-at-a-time: garbage in a 64-handle window is
// one live&^mark, and each garbage object is found with a
// find-next-set-bit loop instead of a per-handle liveness branch.
func (m *Collector) Collect(cy Cycle) int {
	h := m.rt.Heap
	m.stats.Cycles++
	// The mark bits cover every handle id, all clear; a table that has
	// to be reallocated reserves the handle table's capacity, so it
	// grows when that table does and not once per cycle that met new
	// handles.
	m.mark = heap.Grow(m.mark, heap.BitsetWords(h.NumHandles()), heap.BitsetWords(h.HandleCap()))
	clear(m.mark)
	if cy.Begin != nil {
		cy.Begin(m.mark)
	}

	markedBefore := m.stats.Marked
	if cy.Reached == nil && cy.Edge == nil {
		m.markFlat(cy.Scan)
	} else {
		m.markHooked(cy)
	}
	m.rt.Timeline().CycleMarkDone(m.stats.Marked - markedBefore)

	// Sweep: handle-table order, releasing unmarked extents. The
	// garbage word is a snapshot, so each object re-checks the current
	// live word before its Free: a WillFree observer that itself
	// releases a garbage sibling must find that sibling skipped here,
	// exactly as the per-handle liveness walk this loop replaced
	// guaranteed.
	freed := 0
	live := h.LiveWords()
	mark := m.mark
	for k, lw := range live {
		g := lw &^ mark[k]
		base := k << 6
		for g != 0 {
			b := bits.TrailingZeros64(g)
			g &= g - 1
			if live[k]&(1<<uint(b)) == 0 {
				continue
			}
			id := heap.HandleID(base + b)
			if cy.WillFree != nil {
				cy.WillFree(id)
			}
			h.Free(id)
			freed++
		}
	}
	m.stats.Freed += uint64(freed)
	if cy.End != nil {
		cy.End(freed)
	}
	return freed
}

// markFlat is the hook-free mark: the tight inner loop a
// cycle with no per-object/per-edge observers runs. Roots are visited
// in the canonical oldest-first order, then the referents of each live
// scan entry; each reachable object is pushed once and its slab extent
// scanned once.
func (m *Collector) markFlat(scan []heap.HandleID) {
	h := m.rt.Heap
	mark := m.mark
	work := m.work[:0]
	var marked, edges uint64
	trace := func(_ *vm.Frame, roots []heap.HandleID) {
		for _, r := range roots {
			if r == heap.Nil || mark.Has(int(r)) {
				continue
			}
			mark.Set(int(r))
			marked++
			work = append(work, r)
			for len(work) > 0 {
				src := work[len(work)-1]
				work = work[:len(work)-1]
				// RefSlots walks the object's slab extent directly —
				// the contiguous-memory traversal the slab layout buys
				// the mark phase.
				for _, dst := range h.RefSlots(src) {
					if dst == heap.Nil {
						continue
					}
					edges++
					if !mark.Has(int(dst)) {
						mark.Set(int(dst))
						marked++
						work = append(work, dst)
					}
				}
			}
		}
	}
	m.rt.EachRootFrame(trace)
	for _, src := range scan {
		if h.Live(src) {
			trace(nil, h.RefSlots(src))
		}
	}
	m.work = work
	m.stats.Marked += marked
	m.stats.EdgeVisits += edges
}

// markHooked is the observed mark: identical traversal to
// markFlat, firing the subscribed Reached/Edge slots. Event order is
// the contract the §3.6 rebuild depends on: Reached fires before any
// Edge touching the object, so a rebuilding observer (internal/core)
// sees both endpoints in fresh singleton sets before re-contaminating
// them, and the oldest-first root order makes the first reaching frame
// the most conservative dependent frame.
func (m *Collector) markHooked(cy Cycle) {
	h := m.rt.Heap
	mark := m.mark
	work := m.work[:0]
	reached, edge := cy.Reached, cy.Edge
	var marked, edges uint64
	trace := func(f *vm.Frame, roots []heap.HandleID) {
		for _, r := range roots {
			if r == heap.Nil || mark.Has(int(r)) {
				continue
			}
			mark.Set(int(r))
			marked++
			if reached != nil {
				reached(r, f)
			}
			work = append(work, r)
			for len(work) > 0 {
				src := work[len(work)-1]
				work = work[:len(work)-1]
				for _, dst := range h.RefSlots(src) {
					if dst == heap.Nil {
						continue
					}
					edges++
					if !mark.Has(int(dst)) {
						mark.Set(int(dst))
						marked++
						if reached != nil {
							reached(dst, f)
						}
						work = append(work, dst)
					}
					if edge != nil {
						edge(src, dst)
					}
				}
			}
		}
	}
	m.rt.EachRootFrame(trace)
	for _, src := range cy.Scan {
		if h.Live(src) {
			trace(nil, h.RefSlots(src))
		}
	}
	m.work = work
	m.stats.Marked += marked
	m.stats.EdgeVisits += edges
}

// System is the baseline "JDK 1.1.8" configuration: no incremental
// collection, mark–sweep on demand. It implements vm.Collector with the
// leanest possible event table: mark–sweep needs no per-event
// bookkeeping at all, so it subscribes no slot and declares only the
// Collect capability — under the event-table ABI every putfield,
// access and frame pop under msa costs the runtime nothing. Its
// collection cycle subscribes no Cycle slot either, so it always runs
// the flat mark.
type System struct {
	m *Collector
}

// NewSystem returns an unattached baseline system; pass it to vm.New.
func NewSystem() *System { return &System{} }

// Events implements vm.Collector.
func (s *System) Events() vm.Events {
	return vm.Events{
		Attach:    s.Attach,
		Collect:   s.Collect,
		Collector: s,
	}
}

// Attach binds the system to rt (the descriptor's Attach hook).
func (s *System) Attach(rt *vm.Runtime) { s.m = New(rt) }

// Collect is the collection capability.
func (s *System) Collect() int {
	s.m.Reserve()
	return s.m.Collect(Cycle{})
}

// Engine exposes the underlying mark–sweep engine (stats).
func (s *System) Engine() *Collector { return s.m }

var _ vm.Collector = (*System)(nil)
