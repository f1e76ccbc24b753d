package obs

import (
	"slices"
	"sort"
	"sync"
)

// Progress is the live counter set of a running sweep: per-client cell
// lanes, queue depth and in-flight count, tape replays, and per-worker
// utilization. Cell-grained — every update happens at job
// boundaries, never on an event or cycle path — so one mutex over the
// snapshot types themselves is plenty. All methods are
// nil-receiver-safe: call sites thread an optional *Progress through
// without guarding.
//
// The lanes are the one cell ledger. Each outcome is booked once, in
// its client's lane; Snapshot sums the lanes into the cell totals, so
// a total and the lanes can never disagree.
type Progress struct {
	mu    sync.Mutex
	s     ProgressSnapshot         // gauges, tape counters, workers; no cell totals
	anon  LaneSnapshot             // the "" client's lane: summed, never listed
	lanes map[string]*LaneSnapshot // named lanes: at most maxLanes, plus OtherLane
}

// maxLanes bounds the lane table on a long-running server: clients
// beyond the cap aggregate into the catch-all "(other)" lane instead of
// growing the map without bound.
const maxLanes = 128

// OtherLane is the catch-all lane name used once maxLanes distinct
// clients have been seen.
const OtherLane = "(other)"

// update runs f on the state under the lock; a nil p does nothing.
func (p *Progress) update(f func()) {
	if p != nil {
		p.mu.Lock()
		f()
		p.mu.Unlock()
	}
}

// book adds d to client's lane, creating the lane under the cap; the
// "" client is the anonymous lane.
func (p *Progress) book(client string, d LaneSnapshot) {
	p.update(func() {
		l := &p.anon
		if client != "" {
			l = p.lanes[client]
		}
		if l == nil {
			if len(p.lanes) >= maxLanes {
				client = OtherLane
			}
			if l = p.lanes[client]; l == nil {
				if p.lanes == nil {
					p.lanes = make(map[string]*LaneSnapshot)
				}
				l = &LaneSnapshot{Client: client}
				p.lanes[client] = l
			}
		}
		l.add(&d)
	})
}

// Submitted counts n cells submitted by client ("" for an anonymous
// session, which counts toward the totals but is never listed).
func (p *Progress) Submitted(client string, n int) {
	p.book(client, LaneSnapshot{Submitted: int64(n)})
}

// Computed counts one cell executed on client's behalf (locally or by
// a worker process), which is what makes fairness auditable.
func (p *Progress) Computed(client string) { p.book(client, LaneSnapshot{Computed: 1}) }

// Stored counts one of client's cells served from the results store.
func (p *Progress) Stored(client string) { p.book(client, LaneSnapshot{Stored: 1}) }

// Deduped counts one of client's cells delivered by attaching to
// another call's in-flight computation (neither stored nor recomputed).
func (p *Progress) Deduped(client string) { p.book(client, LaneSnapshot{Deduped: 1}) }

// SetGauges records the scheduler's ready-queue depth and how many
// cells are currently being computed.
func (p *Progress) SetGauges(queued, inFlight int) {
	p.update(func() { p.s.QueueDepth, p.s.CellsInFlight = int64(queued), int64(inFlight) })
}

// TapeReplayed counts one repeat served by replaying a shipped event
// tape instead of re-running driver logic.
func (p *Progress) TapeReplayed() { p.update(func() { p.s.TapeReplays++ }) }

// worker returns worker i's slot, growing the table to cover it.
// Callers hold p.mu.
func (p *Progress) worker(i int) *WorkerSnapshot {
	for len(p.s.Workers) <= i {
		p.s.Workers = append(p.s.Workers, WorkerSnapshot{})
	}
	return &p.s.Workers[i]
}

// SetWorkerBusy records worker i's current in-flight cell count.
func (p *Progress) SetWorkerBusy(i, busy int) {
	p.update(func() { p.worker(i).Busy = int64(busy) })
}

// WorkerDone counts one cell completed by worker i, which now has busy
// cells in flight. A worker that never started is ignored.
func (p *Progress) WorkerDone(i, busy int) {
	p.update(func() {
		if i >= 0 && i < len(p.s.Workers) {
			p.s.Workers[i].Busy = int64(busy)
			p.s.Workers[i].Done++
		}
	})
}

// ProgressSnapshot is the JSON-ready copy of a Progress — what the
// debug endpoint serves. The four cell totals are the sums of every
// lane, the anonymous one included. TapesRecorded is always 0, since
// the engine records no tape at run time; it stays only because the
// frozen bench/ reads it (ROADMAP item 4).
type ProgressSnapshot struct {
	CellsTotal    int64            `json:"cells_total"`
	CellsStored   int64            `json:"cells_stored"`
	CellsComputed int64            `json:"cells_computed"`
	CellsDeduped  int64            `json:"cells_deduped,omitempty"`
	CellsInFlight int64            `json:"cells_in_flight"`
	QueueDepth    int64            `json:"queue_depth"`
	TapesRecorded int64            `json:"tapes_recorded,omitempty"`
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
	Busy int64 `json:"busy"`
	Done int64 `json:"done"`
}

// add sums d's four counts into l.
func (l *LaneSnapshot) add(d *LaneSnapshot) {
	l.Submitted += d.Submitted
	l.Computed += d.Computed
	l.Stored += d.Stored
	l.Deduped += d.Deduped
}

// Snapshot copies the current counters. Safe to call concurrently with
// updates; nil returns the zero snapshot.
func (p *Progress) Snapshot() (s ProgressSnapshot) {
	p.update(func() {
		s = p.s
		s.Workers = slices.Clone(p.s.Workers)
		sum := p.anon
		for _, l := range p.lanes {
			sum.add(l)
			s.Lanes = append(s.Lanes, *l)
		}
		s.CellsTotal, s.CellsComputed = sum.Submitted, sum.Computed
		s.CellsStored, s.CellsDeduped = sum.Stored, sum.Deduped
	})
	// Map iteration order is random; snapshots sort by client so the
	// rendered JSON is stable across requests.
	sort.Slice(s.Lanes, func(i, j int) bool { return s.Lanes[i].Client < s.Lanes[j].Client })
	return s
}
