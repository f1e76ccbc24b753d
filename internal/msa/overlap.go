package msa

import (
	"os"
	"sync"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Overlapped collection: snapshot-at-the-beginning tracing that runs
// concurrently with the mutator, for hook-free cycles only
// (DESIGN.md §10).
//
// The cycle splits into three pieces:
//
//   - Open (stop-the-world, a short pause): version the live bitmap
//     into a pooled heap.Snapshot, copy every root VALUE into a flat
//     buffer (so the trace never reads live locals/operands/statics
//     the mutator keeps mutating), and start the PR 5 deterministic
//     parallel trace — per-worker private bitsets over round-robin
//     root groups — on worker goroutines, reading the shared slab
//     through atomic loads and clamped to snapshot-live IDs.
//   - Overlap: the mutator keeps stepping. Its ref stores go through
//     the runtime's SATB barrier (vm.PutField -> heap.SetRefEpoch),
//     which records each overwritten value. The epoch permits stores
//     and reads only — the runtime closes the epoch before any
//     allocation — so the heap's handle table, extents and live bitmap
//     are frozen for the epoch's duration and the one genuinely
//     concurrent region is the ref slots, synchronised store/load by
//     atomics.
//   - Close (stop-the-world): join the workers, merge their bitsets
//     (the PR 5 disjoint word-chunk merge), drain the SATB buffer —
//     re-tracing from every recorded old value — and sweep in
//     parallel against the snapshot with the canonical-order batch
//     merge (heap.CollectGarbageRange / ApplyFreeBatch).
//
// Why the result is EXACT, not conservative, and therefore
// byte-identical to the stop-the-world cycle at the open point:
//
//  1. marks ⊇ reach(snapshot): the standard SATB induction. For any
//     snapshot path v0 -> v1 -> ... -> vk, each vi is eventually
//     marked and traced; when vi's slots are scanned, the edge to
//     vi+1 either still holds vi+1 (marked then) or was overwritten —
//     and the FIRST overwrite of a slot after the open recorded
//     exactly its snapshot value into the SATB buffer, which the
//     close drains and traces.
//  2. marks ⊆ reach(snapshot): the epoch admits no allocation, so
//     every value the mutator can store was read out of the snapshot-
//     reachable graph in the first place — every value any tracer can
//     ever load (snapshot value, later store, or SATB entry) is
//     snapshot-reachable, and the trace additionally clamps to
//     snapshot-live IDs.
//
// So the final mark set equals reach(snapshot) independent of worker
// count, scheduling or where the mutator had gotten to — and the
// freed set (snapshot-live minus marks) equals what a synchronous
// cycle at the open point would have freed. Combined with the
// runtime's close-before-allocation policy, every heap observable
// (handle IDs, arena addresses, stats, figure tables) is
// byte-identical to the stop-the-world schedule.
//
// EdgeVisits needs one correction: the merge recounts the marked
// set's out-degree over the close-time slab, but the stored stat must
// be the open-time count. Every epoch store lands in a snapshot-
// reachable (hence marked) object, so the runtime's barrier tracks
// the net Nil <-> non-Nil slot transitions and the close subtracts
// that delta — recovering the open-time out-degree exactly.
//
// Hooked (CG) cycles never overlap: §3.4's edge replay is
// order-sensitive (contamination is non-confluent), so they keep the
// sequential stop-the-world mark. Admission here mirrors the parallel
// tracer's: hook-free, overlap configured on, and NumLive clears the
// MinLive gate.

// overlapForced force-enables overlap admission process-wide
// (REPRO_OVERLAP=1): the CI -race suite and the determinism jobs run
// every hook-free cycle overlapped without threading a flag through
// every harness. Admission gates other than the on/off bit still
// apply.
var overlapForced = os.Getenv("REPRO_OVERLAP") == "1"

// CollectOverlap tries to open an overlapped collection cycle. On
// admission it takes the snapshot, starts the concurrent trace and
// returns the close function (the vm.Events Overlap contract: the
// runtime calls close with the world stopped). ok=false declines —
// overlap not configured, or the cycle is too small to be worth a
// snapshot epoch — and the caller falls back to the synchronous path.
func (m *Collector) CollectOverlap() (func() int, bool) {
	return m.collectOverlap(nil, false)
}

// collectOverlap is the shared overlap-open body. owners, when
// non-nil, requests first-reaching-group attribution (resolved in the
// close's merge exactly as markParallel's: minimum group index over
// workers); attribution over a concurrently mutating slab would be
// timing-dependent, so owners mode implies freeze. freeze copies the
// slab into the snapshot so the trace reads the epoch-start graph
// verbatim — the property tests' reference mode; production passes
// (nil, false) and pays no copy.
func (m *Collector) collectOverlap(owners []int32, freeze bool) (func() int, bool) {
	if !(m.overlapOn || overlapForced) || m.rt == nil {
		return nil, false
	}
	h := m.rt.Heap
	gate := m.resolveMinLive()
	if overlapForced {
		// The force knob exists to drive the overlap machinery through
		// every hook-free cycle the suite runs, including cells far too
		// small to admit in production.
		gate = 1
	}
	if h.NumLive() < gate {
		// A small cycle's stop-the-world pause is already shorter than
		// the snapshot-epoch machinery it would buy.
		return nil, false
	}
	m.stats.Cycles++
	h.Snapshot(&m.snap)
	if freeze || owners != nil {
		m.frozen = m.snap.Freeze(m.frozen)
	}
	snapCap := m.snap.NumHandles()

	// Copy the root values. RootGroup.Roots aliases live frames and
	// static slots the mutator will mutate (SetLocal, Forget, appends),
	// so the trace must own its own copy; group structure — and with
	// it the min-group-index attribution argument — is preserved by
	// spans into one flat buffer. Pre-sizing keeps every span aliasing
	// the same backing array.
	m.parts = m.rt.AppendRootGroups(m.parts[:0])
	total := 0
	for _, g := range m.parts {
		total += len(g.Roots)
	}
	if cap(m.rootBuf) < total {
		m.rootBuf = make([]heap.HandleID, 0, total)
	}
	buf := m.rootBuf[:0]
	op := m.oparts[:0]
	for _, g := range m.parts {
		start := len(buf)
		buf = append(buf, g.Roots...)
		op = append(op, vm.RootGroup{Frame: g.Frame, Roots: buf[start:len(buf)]})
	}
	m.rootBuf, m.oparts = buf, op

	workers := m.resolveWorkers()
	if workers > len(op) {
		workers = len(op)
	}
	if workers < 1 {
		workers = 1
	}
	ws := m.scratchFor(workers)
	needOwners := owners != nil

	// Concurrent phase 1: the private per-worker traces, exactly
	// markParallel's, against the snapshot view. The spawn is the last
	// thing the open does — everything the workers read (snapshot,
	// root copy, scratch) is written before these statements.
	for i, s := range ws {
		m.wg.Add(1)
		go func(s *traceScratch, start int) {
			defer m.wg.Done()
			s.traceSnapshot(&m.snap, op, start, workers, needOwners)
		}(s, i)
	}
	return func() int { return m.closeOverlap(ws, owners, snapCap) }, true
}

// closeOverlap completes the overlapped cycle with the world stopped:
// join, merge, SATB drain, parallel sweep.
func (m *Collector) closeOverlap(ws []*traceScratch, owners []int32, snapCap int) int {
	m.wg.Wait()
	h := m.rt.Heap
	workers := len(ws)

	// Merge (the PR 5 disjoint word-chunk merge): OR of the worker
	// bitsets into m.mark, popcount, out-degree recount, min-group
	// owner resolution. The world is stopped, so the recount may read
	// the slab plainly; extents of marked (snapshot-live) objects are
	// untouched since the open.
	m.mark.Reset(snapCap)
	words := len(m.mark)
	chunk := (words + workers - 1) / workers
	var wg sync.WaitGroup
	for i, s := range ws {
		lo := i * chunk
		hi := lo + chunk
		if hi > words {
			hi = words
		}
		wg.Add(1)
		go func(s *traceScratch, lo, hi int) {
			defer wg.Done()
			s.merge(h, m.mark, ws, owners, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	var marked, edges uint64
	for _, s := range ws {
		marked += s.marked
		edges += s.edges
	}

	// SATB drain: re-trace from every overwritten value the epoch
	// recorded. Anything already marked is skipped in O(1); anything
	// new is marked and traced over the current slab (stopped world,
	// plain reads), its out-degree counted like the merge counted the
	// rest of the marked set's.
	dm, de := m.drainSATB(snapCap)
	marked += dm
	edges += de

	// Out-degree correction: recounts above saw the close-time slab;
	// subtracting the barrier's net Nil -> non-Nil delta recovers the
	// open-time EdgeVisits exactly (every epoch store hit a marked
	// object).
	edges = uint64(int64(edges) - m.rt.SATBNilDelta())
	m.stats.Marked += marked
	m.stats.EdgeVisits += edges
	m.rt.Timeline().CycleMarkDone(workers, marked)

	freed := m.sweepParallel(workers)
	m.stats.Freed += uint64(freed)
	m.snap.Release()
	return freed
}

// traceSnapshot is one worker's private trace against the snapshot
// view: trace()'s loop with three changes — roots come from the flat
// copy, slab loads are atomic (the mutator stores concurrently), and
// traversal clamps to snapshot-live IDs below the snapshot's handle
// cap (anything else was born after the open and is live this cycle
// by construction).
func (s *traceScratch) traceSnapshot(snap *heap.Snapshot, parts []vm.RootGroup, start, stride int, needOwners bool) {
	snapCap := snap.NumHandles()
	s.mark.Reset(snapCap)
	if needOwners {
		s.owner = resetOwners(s.owner, snapCap)
	}
	mark := s.mark
	live := snap.Live
	work := s.work[:0]
	for pi := start; pi < len(parts); pi += stride {
		for _, r := range parts[pi].Roots {
			if r == heap.Nil || int(r) >= snapCap || !live.Has(int(r)) || mark.Has(int(r)) {
				continue
			}
			mark.Set(int(r))
			if needOwners {
				s.owner[int(r)] = int32(pi)
			}
			work = append(work, r)
			for len(work) > 0 {
				src := work[len(work)-1]
				work = work[:len(work)-1]
				slots := snap.RefSlots(src)
				for i := range slots {
					dst := heap.RefAtomic(slots, i)
					if dst == heap.Nil || int(dst) >= snapCap || !live.Has(int(dst)) || mark.Has(int(dst)) {
						continue
					}
					mark.Set(int(dst))
					if needOwners {
						s.owner[int(dst)] = int32(pi)
					}
					work = append(work, dst)
				}
			}
		}
	}
	s.work = work
}

// drainSATB marks and traces everything reachable from the epoch's
// recorded overwritten values that the concurrent trace missed,
// returning the additional marked count and their close-time
// out-degree. Usually near-empty: an entry survives only if the
// mutator destroyed the sole path the tracer had left to it.
func (m *Collector) drainSATB(snapCap int) (marked, edges uint64) {
	h := m.rt.Heap
	live := m.snap.Live
	mark := m.mark
	work := m.work[:0]
	for _, id := range m.rt.SATBPending() {
		if id == heap.Nil || int(id) >= snapCap || !live.Has(int(id)) || mark.Has(int(id)) {
			continue
		}
		mark.Set(int(id))
		marked++
		work = append(work, id)
		for len(work) > 0 {
			src := work[len(work)-1]
			work = work[:len(work)-1]
			for _, dst := range h.RefSlots(src) {
				if dst == heap.Nil {
					continue
				}
				edges++
				if int(dst) >= snapCap || !live.Has(int(dst)) || mark.Has(int(dst)) {
					continue
				}
				mark.Set(int(dst))
				marked++
				work = append(work, dst)
			}
		}
	}
	m.work = work
	return marked, edges
}

// sweepParallel frees everything snapshot-live but unmarked: workers
// release handle records and live bits over disjoint word ranges into
// per-worker batches, then the batches merge into the arena
// sequentially in ascending range order — the canonical lowest-ID
// free sequence, byte-identical in effect to the sequential sweep
// (heap/sweepbatch.go).
func (m *Collector) sweepParallel(workers int) int {
	h := m.rt.Heap
	live := m.snap.Live
	mark := m.mark
	words := len(mark)
	if len(live) < words {
		words = len(live)
	}
	for len(m.batches) < workers {
		m.batches = append(m.batches, heap.FreeBatch{})
	}
	bs := m.batches[:workers]
	if workers == 1 {
		bs[0].Reset()
		h.CollectGarbageRange(live, mark, 0, words, &bs[0])
		return h.ApplyFreeBatch(&bs[0])
	}
	chunk := (words + workers - 1) / workers
	var wg sync.WaitGroup
	for i := range bs {
		bs[i].Reset()
		lo := i * chunk
		if lo > words {
			lo = words
		}
		hi := lo + chunk
		if hi > words {
			hi = words
		}
		wg.Add(1)
		go func(b *heap.FreeBatch, lo, hi int) {
			defer wg.Done()
			h.CollectGarbageRange(live, mark, lo, hi, b)
		}(&bs[i], lo, hi)
	}
	wg.Wait()
	freed := 0
	for i := range bs {
		freed += h.ApplyFreeBatch(&bs[i])
	}
	return freed
}

// Overlapped reports whether overlap admission is currently on for
// this engine (configuration or the REPRO_OVERLAP force).
func (m *Collector) Overlapped() bool { return m.overlapOn || overlapForced }
