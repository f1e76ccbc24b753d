package obs

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
	// MaxWorkers is 1 once any cycle ran: every cycle marks on the
	// calling goroutine. It stays only because bench/probes.go reads it
	// for its msa.max_workers metric and stored outcomes carry
	// "max_workers":1.
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

// Timeline is the per-shard cycle recorder: cumulative CycleStats. The
// zero value is ready to record (the clock is drawn lazily on the first
// cycle). It is single-writer — the shard that owns it records; readers
// take a Stats snapshot after the shard's run ends — and fixed-size, so
// the recording path performs no allocation and no locking.
//
// The phase protocol per cycle: CycleStart, then at most one
// CycleMarkDone per mark pass (last call wins for the phase boundary;
// marked counts accumulate), then CycleEnd. MarkDone/End outside an
// open cycle are ignored, so a collector whose Collect runs outside
// the runtime's instrumented path records nothing rather than
// corrupting the stats.
type Timeline struct {
	now func() int64

	// Current-cycle scratch.
	open      bool
	start     int64
	markEnd   int64
	curMarked uint64

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

// CycleEnd closes the cycle into the cumulative stats (including the
// pause histogram). Ignored outside an open cycle.
func (t *Timeline) CycleEnd(freed uint64) {
	if !t.open {
		return
	}
	t.open = false
	end := t.now()
	pause := end - t.start
	s := &t.stats
	s.Cycles++
	s.Marked += t.curMarked
	s.Freed += freed
	s.PauseNS += pause
	s.MarkNS += t.markEnd - t.start
	s.SweepNS += end - t.markEnd
	if pause > s.MaxPauseNS {
		s.MaxPauseNS = pause
	}
	s.MaxWorkers = 1
	s.Pause.Record(pause)
}

// Stats returns a copy of the cumulative cycle statistics.
func (t *Timeline) Stats() CycleStats { return t.stats }
