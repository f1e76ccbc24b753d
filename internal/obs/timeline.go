package obs

// TimelineCap bounds the per-shard cycle ring: the most recent
// TimelineCap collection cycles keep their full phase breakdown; older
// cycles survive only in the cumulative CycleStats. A forced-GC cell
// can cycle hundreds of thousands of times, so the ring must be
// bounded — and fixed-size, so recording never allocates.
const TimelineCap = 256

// CycleRecord is one collection cycle's phase breakdown: nanosecond
// durations for the whole stop-the-world pause and its mark and sweep
// phases, and the object counts it produced.
//
// Workers is always 1: every cycle marks on the calling goroutine. It
// and CycleStats.MaxWorkers stay only because bench/probes.go (frozen
// outside benchmark PRs) reads MaxWorkers for its msa.max_workers metric
// and stored outcomes carry "max_workers":1; the next benchmark PR
// removes the metric and both fields (ROADMAP).
type CycleRecord struct {
	Pause   int64  `json:"pause_ns"`
	Mark    int64  `json:"mark_ns"`
	Sweep   int64  `json:"sweep_ns"`
	Workers int32  `json:"workers"`
	Marked  uint64 `json:"marked"`
	Freed   uint64 `json:"freed"`
}

// CycleStats is the cumulative, serialisable extract of a shard's
// timeline: what Outcome carries per cell and what any number of cells
// merge into. Merge is field-wise addition (plus max for the maxima
// and the histogram's bucket-wise add), so aggregation is
// order-independent: merging the same cells in any order — any
// -workers/-procs split — produces the identical struct.
type CycleStats struct {
	// Cycles counts completed collection cycles.
	Cycles uint64 `json:"cycles"`
	// Marked and Freed are cumulative object counts across cycles.
	Marked uint64 `json:"marked"`
	Freed  uint64 `json:"freed"`
	// PauseNS/MarkNS/SweepNS are cumulative phase nanoseconds.
	PauseNS int64 `json:"pause_ns"`
	MarkNS  int64 `json:"mark_ns"`
	SweepNS int64 `json:"sweep_ns"`
	// MaxPauseNS is the longest single pause observed.
	MaxPauseNS int64 `json:"max_pause_ns"`
	// MaxWorkers is 1 once any cycle ran (see CycleRecord.Workers).
	MaxWorkers int32 `json:"max_workers,omitempty"`
	// Pause is the pause-duration histogram (log-scale ns buckets).
	Pause Histogram `json:"pause_hist"`
}

// Merge accumulates o into s (order-independent shard aggregation).
func (s *CycleStats) Merge(o *CycleStats) {
	s.Cycles += o.Cycles
	s.Marked += o.Marked
	s.Freed += o.Freed
	s.PauseNS += o.PauseNS
	s.MarkNS += o.MarkNS
	s.SweepNS += o.SweepNS
	if o.MaxPauseNS > s.MaxPauseNS {
		s.MaxPauseNS = o.MaxPauseNS
	}
	if o.MaxWorkers > s.MaxWorkers {
		s.MaxWorkers = o.MaxWorkers
	}
	s.Pause.Merge(&o.Pause)
}

// Timeline is the per-shard cycle recorder: a bounded ring of recent
// CycleRecords plus cumulative CycleStats. The zero value is ready to
// record (the clock is drawn lazily on the first cycle). It is
// single-writer — the shard that owns it records; readers take
// snapshots through Stats/Recent after the shard's run ends — and every
// buffer is fixed-size, so the recording path performs no allocation
// and no locking.
//
// The phase protocol per cycle: CycleStart, then at most one
// CycleMarkDone per mark pass (last call wins for the phase boundary;
// marked counts accumulate), then CycleEnd. MarkDone/End outside an
// open cycle are ignored, so a collector whose Collect runs outside
// the runtime's instrumented path records nothing rather than
// corrupting the ring.
type Timeline struct {
	now func() int64

	// Current-cycle scratch.
	open      bool
	start     int64
	markEnd   int64
	curMarked uint64

	ring  [TimelineCap]CycleRecord
	n     uint64 // total cycles ever recorded (ring writes = n % cap)
	stats CycleStats
}

// CycleStart opens a cycle at the current clock reading.
func (t *Timeline) CycleStart() {
	if t.now == nil {
		t.now = newClock()
	}
	t.open = true
	t.start = t.now()
	t.markEnd = t.start
	t.curMarked = 0
}

// CycleMarkDone records the end of a mark pass: the mark/sweep phase
// boundary moves to now and marked objects accumulate. Ignored outside
// an open cycle.
func (t *Timeline) CycleMarkDone(marked uint64) {
	if !t.open {
		return
	}
	t.markEnd = t.now()
	t.curMarked += marked
}

// CycleEnd closes the cycle: the record lands in the ring and the
// cumulative stats (including the pause histogram). Ignored outside an
// open cycle.
func (t *Timeline) CycleEnd(freed uint64) {
	if !t.open {
		return
	}
	t.open = false
	end := t.now()
	rec := CycleRecord{
		Pause:   end - t.start,
		Mark:    t.markEnd - t.start,
		Sweep:   end - t.markEnd,
		Workers: 1,
		Marked:  t.curMarked,
		Freed:   freed,
	}
	t.ring[t.n%TimelineCap] = rec
	t.n++
	s := &t.stats
	s.Cycles++
	s.Marked += rec.Marked
	s.Freed += rec.Freed
	s.PauseNS += rec.Pause
	s.MarkNS += rec.Mark
	s.SweepNS += rec.Sweep
	if rec.Pause > s.MaxPauseNS {
		s.MaxPauseNS = rec.Pause
	}
	s.MaxWorkers = rec.Workers
	s.Pause.Record(rec.Pause)
}

// Cycles reports how many cycles have been recorded in total.
func (t *Timeline) Cycles() uint64 { return t.n }

// Stats returns a copy of the cumulative cycle statistics.
func (t *Timeline) Stats() CycleStats { return t.stats }

// Recent appends the retained cycle records to buf, oldest first, and
// returns the extended slice (at most TimelineCap records; older
// cycles have aged out of the ring).
func (t *Timeline) Recent(buf []CycleRecord) []CycleRecord {
	n := t.n
	lo := uint64(0)
	if n > TimelineCap {
		lo = n - TimelineCap
	}
	for i := lo; i < n; i++ {
		buf = append(buf, t.ring[i%TimelineCap])
	}
	return buf
}

// Reset returns the timeline to its zero state and discards its clock,
// so the next cycle draws a fresh one from the current factory: a
// pooled shard's timeline is indistinguishable from a fresh shard's.
func (t *Timeline) Reset() {
	*t = Timeline{}
}
