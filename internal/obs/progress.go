package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Progress is the live counter set of a running sweep: cell totals,
// store hits, computed cells, queue depth and in-flight count, plus
// per-worker utilization. Cell-grained — every update happens at job
// boundaries, never on an event or cycle path — so plain atomics and
// one small mutex for the worker table are plenty. All methods are
// nil-receiver-safe: call sites thread an optional *Progress through
// without guarding.
type Progress struct {
	total, stored, computed, deduped, inFlight, queued atomic.Int64
	tapesRecorded, tapesDeclined, tapeReplays          atomic.Int64

	mu      sync.Mutex
	workers []workerState
	lanes   map[string]*laneState
}

type workerState struct {
	label string
	busy  int64
	done  int64
}

// laneState is one client's slice of a shared sweep server: how many
// cells it submitted and how each was satisfied. Lanes are the fairness
// ledger — a server snapshot shows exactly which client's sweeps the
// engine is spending its executions on.
type laneState struct {
	submitted int64 // cells this client asked for
	computed  int64 // executed by the engine on this client's behalf
	stored    int64 // served from the shared results store
	deduped   int64 // attached to another client's in-flight cell
}

// maxLanes bounds the lane table on a long-running server: clients
// beyond the cap aggregate into the catch-all "(other)" lane instead of
// growing the map without bound.
const maxLanes = 128

// OtherLane is the catch-all lane name used once maxLanes distinct
// clients have been seen.
const OtherLane = "(other)"

// AddTotal adds n cells to the expected total (one batch submission).
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.total.Add(int64(n))
}

// AddStored counts a cell served from the results store.
func (p *Progress) AddStored(n int) {
	if p == nil {
		return
	}
	p.stored.Add(int64(n))
}

// AddComputed counts a cell actually computed (locally or by a worker
// process).
func (p *Progress) AddComputed(n int) {
	if p == nil {
		return
	}
	p.computed.Add(int64(n))
}

// AddDeduped counts a cell delivered by attaching to another client's
// in-flight computation (neither stored nor recomputed).
func (p *Progress) AddDeduped(n int) {
	if p == nil {
		return
	}
	p.deduped.Add(int64(n))
}

// lane returns client's lane state, creating it under the cap. Callers
// hold p.mu. Empty client names have no lane.
func (p *Progress) lane(client string) *laneState {
	if client == "" {
		return nil
	}
	if p.lanes == nil {
		p.lanes = make(map[string]*laneState)
	}
	l, ok := p.lanes[client]
	if !ok {
		if len(p.lanes) >= maxLanes {
			client = OtherLane
			if l, ok = p.lanes[client]; ok {
				return l
			}
		}
		l = &laneState{}
		p.lanes[client] = l
	}
	return l
}

// LaneSubmitted counts n cells submitted by client (no-op for the empty
// client name, so anonymous one-shot requests never grow the table).
func (p *Progress) LaneSubmitted(client string, n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if l := p.lane(client); l != nil {
		l.submitted += int64(n)
	}
}

// LaneComputed counts one cell the engine executed on client's behalf —
// the engine calls it for jobs carrying a client tag, which is what
// makes fairness auditable from /progress.
func (p *Progress) LaneComputed(client string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if l := p.lane(client); l != nil {
		l.computed++
	}
}

// LaneStored counts one of client's cells served from the shared store.
func (p *Progress) LaneStored(client string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if l := p.lane(client); l != nil {
		l.stored++
	}
}

// LaneDeduped counts one of client's cells delivered by another
// client's in-flight computation.
func (p *Progress) LaneDeduped(client string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if l := p.lane(client); l != nil {
		l.deduped++
	}
}

// TapeRecorded counts one event tape captured by the engine (the first
// cell of a (workload, size) row drove the workload and recorded it).
func (p *Progress) TapeRecorded() {
	if p == nil {
		return
	}
	p.tapesRecorded.Add(1)
}

// TapeDeclined counts one (workload, size) row whose recording was
// abandoned as too long to pay: the row is never recorded again and all
// its cells drive, which is why it shows no replays.
func (p *Progress) TapeDeclined() {
	if p == nil {
		return
	}
	p.tapesDeclined.Add(1)
}

// TapeReplayed counts one repeat served by replaying a cached event
// tape instead of re-running driver logic.
func (p *Progress) TapeReplayed() {
	if p == nil {
		return
	}
	p.tapeReplays.Add(1)
}

// SetQueued records the scheduler's current ready-queue depth.
func (p *Progress) SetQueued(n int) {
	if p == nil {
		return
	}
	p.queued.Store(int64(n))
}

// SetInFlight records how many cells are currently being computed.
func (p *Progress) SetInFlight(n int) {
	if p == nil {
		return
	}
	p.inFlight.Store(int64(n))
}

// EnsureWorkers grows the per-worker table to at least n slots.
func (p *Progress) EnsureWorkers(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.workers) < n {
		p.workers = append(p.workers, workerState{})
	}
}

// SetWorkerLabel names worker i in snapshots (a dist worker's host and
// pid, say).
func (p *Progress) SetWorkerLabel(i int, label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= 0 && i < len(p.workers) {
		p.workers[i].label = label
	}
}

// SetWorkerBusy records worker i's current in-flight cell count.
func (p *Progress) SetWorkerBusy(i int, busy int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= 0 && i < len(p.workers) {
		p.workers[i].busy = int64(busy)
	}
}

// AddWorkerDone counts one cell completed by worker i.
func (p *Progress) AddWorkerDone(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= 0 && i < len(p.workers) {
		p.workers[i].done++
	}
}

// ProgressSnapshot is the JSON-ready copy of a Progress — what the
// debug endpoint serves.
type ProgressSnapshot struct {
	CellsTotal    int64            `json:"cells_total"`
	CellsStored   int64            `json:"cells_stored"`
	CellsComputed int64            `json:"cells_computed"`
	CellsDeduped  int64            `json:"cells_deduped,omitempty"`
	CellsInFlight int64            `json:"cells_in_flight"`
	QueueDepth    int64            `json:"queue_depth"`
	TapesRecorded int64            `json:"tapes_recorded,omitempty"`
	TapesDeclined int64            `json:"tapes_declined,omitempty"`
	TapeReplays   int64            `json:"tape_replays,omitempty"`
	Workers       []WorkerSnapshot `json:"workers,omitempty"`
	Lanes         []LaneSnapshot   `json:"lanes,omitempty"`
}

// LaneSnapshot is one client's lane: its submissions and how they were
// satisfied. computed + stored + deduped converges on submitted as the
// client's batches complete.
type LaneSnapshot struct {
	Client    string `json:"client"`
	Submitted int64  `json:"submitted"`
	Computed  int64  `json:"computed"`
	Stored    int64  `json:"stored"`
	Deduped   int64  `json:"deduped"`
}

// WorkerSnapshot is one worker's utilization: its current in-flight
// count and cumulative completions.
type WorkerSnapshot struct {
	Label string `json:"label,omitempty"`
	Busy  int64  `json:"busy"`
	Done  int64  `json:"done"`
}

// Snapshot copies the current counters. Safe to call concurrently with
// updates; nil returns the zero snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		CellsTotal:    p.total.Load(),
		CellsStored:   p.stored.Load(),
		CellsComputed: p.computed.Load(),
		CellsDeduped:  p.deduped.Load(),
		CellsInFlight: p.inFlight.Load(),
		QueueDepth:    p.queued.Load(),
		TapesRecorded: p.tapesRecorded.Load(),
		TapesDeclined: p.tapesDeclined.Load(),
		TapeReplays:   p.tapeReplays.Load(),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		s.Workers = append(s.Workers, WorkerSnapshot{Label: w.label, Busy: w.busy, Done: w.done})
	}
	for client, l := range p.lanes {
		s.Lanes = append(s.Lanes, LaneSnapshot{
			Client: client, Submitted: l.submitted,
			Computed: l.computed, Stored: l.stored, Deduped: l.deduped,
		})
	}
	// Map iteration order is random; snapshots sort by client so the
	// rendered JSON is stable across requests.
	sort.Slice(s.Lanes, func(i, j int) bool { return s.Lanes[i].Client < s.Lanes[j].Client })
	return s
}
