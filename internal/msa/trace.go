package msa

import (
	"math/bits"
	"sync"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Deterministic parallel tracing.
//
// The mark phase is a pure reachability computation, and reachability
// from a root set is a property of the object graph alone — it does not
// depend on traversal order or on what other traversals marked first.
// That is the whole determinism argument, in three steps:
//
//  1. Partition the roots into groups in the canonical sequential
//     order (vm.AppendRootGroups: static pseudo-frame first, then each
//     thread's frames oldest-first). Group index = sequential
//     traversal position.
//  2. Trace groups independently on a bounded worker pool. Each worker
//     owns a private mark bitset (and, when requested, a private
//     owner table) — no shared mutable state, no atomics on the mark
//     path. Groups are dealt round-robin (worker i takes groups i,
//     i+W, i+2W, ...), so the groups one worker processes form an
//     increasing subsequence; within one worker, marking stops at
//     locally-marked objects exactly the way the sequential mark stops
//     at globally-marked ones, so the worker-local owner of an object
//     is the minimum of its groups that reach it. (Round-robin rather
//     than a shared work counter: the assignment — and so each
//     worker's duplicated-work profile — is reproducible instead of
//     scheduler-dependent, and the mark path needs no atomics at all.)
//  3. Merge: the final mark set is the union (word-wise OR) of the
//     worker bitsets, and an object's first reaching group is the
//     minimum group index over workers. min over workers of per-worker
//     minima is the global minimum over all groups that reach the
//     object — which is precisely the group the sequential oldest-first
//     mark would have credited, because a sequential traversal from
//     group i marks exactly reach(i) minus what groups j<i already
//     marked. The per-object first-reaching *frame* is therefore
//     byte-identical to the sequential assignment
//     (TestParallelTraceMatchesSequentialFrames pins it).
//
// Stats stay identical too: Marked is the popcount of the merged set,
// and EdgeVisits is recomputed as the summed out-degree of marked
// objects — equal to the sequential count, where every marked object is
// popped exactly once and each of its non-nil slots counted once. Both
// are summed per word-chunk, so the merge parallelizes without
// atomics: chunks are disjoint word ranges, each owned by one worker.
//
// What parallel tracing deliberately does NOT do is replay the
// Reached/Edge slots: CG's §3.6 rebuild is order-sensitive (the §3.4
// static-set optimization makes contamination non-confluent — whether
// an edge unions depends on whether the target's set is *already*
// static when the edge is processed), so a hooked cycle always runs the
// sequential devirtualized mark. Hook-free cycles (plain msa, none) are
// the ones whose time is pure traversal, and they are exactly the ones
// that parallelize.

// DefaultTraceMinLive is the parallel-tracing admission gate: below
// this many live objects a cycle is traced sequentially (per-cycle
// goroutine spawn and worker bitset clears would dominate the marking
// they spread out). One popcount pass over the live bitmap decides.
const DefaultTraceMinLive = 1 << 15

// TraceConfig is the tracing configuration, scoped to one Collector
// (and so to one engine's shards). There is deliberately no
// process-global equivalent — the former package-level setters let two
// engines in one process race on trace settings, and every path (CLI
// flags included) now threads a TraceConfig instead. Zero fields keep
// the built-in default for that knob, so the zero TraceConfig is
// "inherit everything".
type TraceConfig struct {
	// Workers is the trace pool size. 0 and 1 trace sequentially: every
	// worker re-traces the subgraph it shares with the other workers'
	// root groups, and on the one host this was measured on (2 CPUs,
	// DESIGN.md §7) two workers lost to one by a quarter or more. N > 1
	// opts in and is honoured as given.
	Workers int
	// MinLive is the live-object admission gate for parallel tracing
	// and overlapped cycles; 0 inherits DefaultTraceMinLive.
	MinLive int
	// Overlap admits overlapped (snapshot-epoch) collection for
	// hook-free cycles that also clear the MinLive gate.
	Overlap bool
}

// SetTraceConfig applies a per-engine tracing configuration,
// replacing any previous one. Output is byte-identical for every
// configuration; only wall-clock and pause shape vary.
func (m *Collector) SetTraceConfig(c TraceConfig) {
	m.traceWorkers = c.Workers
	m.traceMinLive = c.MinLive
	m.overlapOn = c.Overlap
}

// SetTrace overrides the automatic defaults for this collector only (0
// keeps the default for that knob). Kept for callers that predate
// TraceConfig.
func (m *Collector) SetTrace(workers, minLive int) {
	m.traceWorkers = workers
	m.traceMinLive = minLive
}

// resolveWorkers resolves the configured trace pool size (>= 1)
// without consulting the admission gate.
func (m *Collector) resolveWorkers() int {
	return max(m.traceWorkers, 1)
}

// resolveMinLive resolves the live-object admission gate.
func (m *Collector) resolveMinLive() int {
	if m.traceMinLive == 0 {
		return DefaultTraceMinLive
	}
	return m.traceMinLive
}

// parallelWorkers resolves how many trace workers a hook-free cycle
// over h should use; 1 means trace sequentially.
func (m *Collector) parallelWorkers(h *heap.Heap) int {
	w := m.resolveWorkers()
	if w <= 1 {
		return 1
	}
	if h.NumLive() < m.resolveMinLive() {
		return 1
	}
	return w
}

// traceScratch is one worker's private state: a mark bitset, an
// optional owner table (first-reaching group index per handle, -1
// unreached), a DFS stack, and the per-chunk merge accumulators. All
// fields are pointer-free, so pooled scratch pins nothing.
type traceScratch struct {
	mark   heap.Bitset
	owner  []int32
	work   []heap.HandleID
	marked uint64
	edges  uint64
}

var scratchPool = sync.Pool{New: func() any { return new(traceScratch) }}

// scratchFor sizes the collector's retained worker-scratch table to
// exactly workers entries: reuse the scratch retained from the
// previous cycle (forced-GC cells cycle constantly); draw from or
// return to the shared pool only when the worker count changes.
func (m *Collector) scratchFor(workers int) []*traceScratch {
	ws := m.workers
	for len(ws) < workers {
		ws = append(ws, scratchPool.Get().(*traceScratch))
	}
	for i := workers; i < len(ws); i++ {
		scratchPool.Put(ws[i])
		ws[i] = nil
	}
	ws = ws[:workers]
	m.workers = ws
	return ws
}

// trace marks everything reachable from the roots of groups start,
// start+stride, start+2*stride, ... into the worker-private bitset.
func (s *traceScratch) trace(h *heap.Heap, parts []vm.RootGroup, start, stride, numHandles int, needOwners bool) {
	s.mark.Reset(numHandles)
	if needOwners {
		s.owner = resetOwners(s.owner, numHandles)
	}
	mark := s.mark
	work := s.work[:0]
	for pi := start; pi < len(parts); pi += stride {
		for _, r := range parts[pi].Roots {
			if r == heap.Nil || mark.Has(int(r)) {
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
				for _, dst := range h.RefSlots(src) {
					if dst == heap.Nil || mark.Has(int(dst)) {
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

// resetOwners sizes o to n entries, all -1, reusing capacity.
func resetOwners(o []int32, n int) []int32 {
	if cap(o) < n {
		o = make([]int32, n)
	}
	o = o[:n]
	for i := range o {
		o[i] = -1
	}
	return o
}

// markParallel runs one deterministic parallel mark into m.mark (which
// Collect has already Reset). When owners is non-nil it must have at
// least NumHandles entries pre-filled with -1; each marked object's
// entry receives its first-reaching root-group index — the sequential
// oldest-first attribution (the property tests consume this; hook-free
// production cycles pass nil and skip the owner bookkeeping entirely).
// It returns the root group list so callers can map group indices back
// to frames.
func (m *Collector) markParallel(workers int, owners []int32) []vm.RootGroup {
	h := m.rt.Heap
	m.parts = m.rt.AppendRootGroups(m.parts[:0])
	parts := m.parts
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers < 1 {
		workers = 1
	}
	numHandles := h.NumHandles()
	needOwners := owners != nil

	ws := m.scratchFor(workers)

	// Phase 1: private traces over statically dealt groups — nothing is
	// shared, nothing is atomic.
	var wg sync.WaitGroup
	for i, s := range ws {
		wg.Add(1)
		go func(s *traceScratch, start int) {
			defer wg.Done()
			s.trace(h, parts, start, workers, numHandles, needOwners)
		}(s, i)
	}
	wg.Wait()

	// Phase 2: merge. The word range is split into one disjoint chunk
	// per worker, so the OR passes, the popcount, the out-degree
	// recount and the min-group resolution all run without atomics.
	words := len(m.mark)
	chunk := (words + workers - 1) / workers
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
	m.stats.Marked += marked
	m.stats.EdgeVisits += edges
	return parts
}

// merge resolves words [lo, hi) of the final mark set: OR of every
// worker's bitset, plus the chunk's share of the Marked popcount, the
// EdgeVisits out-degree recount and (when owners is non-nil) the
// min-group owner resolution. The receiver only carries the chunk's
// accumulators; it reads every worker's scratch read-only.
func (s *traceScratch) merge(h *heap.Heap, dst heap.Bitset, ws []*traceScratch, owners []int32, lo, hi int) {
	var marked, edges uint64
	for k := lo; k < hi; k++ {
		merged := uint64(0)
		for _, w := range ws {
			merged |= w.mark[k]
		}
		dst[k] = merged
		marked += uint64(bits.OnesCount64(merged))
		base := k << 6
		for g := merged; g != 0; g &= g - 1 {
			id := heap.HandleID(base + bits.TrailingZeros64(g))
			for _, ref := range h.RefSlots(id) {
				if ref != heap.Nil {
					edges++
				}
			}
			if owners != nil {
				best := int32(-1)
				for _, w := range ws {
					if o := w.owner[int(id)]; o >= 0 && (best < 0 || o < best) {
						best = o
					}
				}
				owners[int(id)] = best
			}
		}
	}
	s.marked = marked
	s.edges = edges
}
