package engine

import (
	"sync"

	"repro/internal/tape"
	"repro/internal/vm"
)

// tapeKey identifies a recorded event stream. A tape is a pure
// function of (workload, size): the driver's control flow depends only
// on its deterministic RNG and on graph reads whose Nil-ness every
// collector preserves, so the collector / heap-budget / gc-every /
// repeat axes of the matrix all replay one recording.
type tapeKey struct {
	workload string
	size     int
}

// tapeCache holds one tape per (workload, size) row of the matrix.
// Recording is opportunistic singleflight: the first cell of a row to
// arrive claims the recording slot and drives the workload normally
// (recording as a side effect); concurrent cells of the same row miss
// and drive normally too — nobody ever blocks on a recording in
// flight. Only complete, error-free runs publish; a panic mid-record
// releases the claim so the next cell can try again. Kept tapes are
// never evicted: maxTapedOps bounds each at KBs and the matrix has 24
// rows.
type tapeCache struct {
	mu    sync.Mutex
	tapes map[tapeKey]*tape.Tape
	// claimed rows have their recording slot taken: by a cell recording
	// right now, or for good by a recording that reached maxTapedOps —
	// the row is declined, and every cell of it drives.
	claimed map[tapeKey]bool
	// recorders holds spent *tape.Recorders. A declined row records
	// maxTapedOps ops before it gives up; reusing the streams it grew
	// keeps every later recording from growing its own.
	recorders sync.Pool
}

// recorder attaches a recorder to the fresh runtime rt, reusing a spent
// one when the pool has it, and bounds it by maxTapedOps.
func (tc *tapeCache) recorder(rt *vm.Runtime, meta tape.Meta) *tape.Recorder {
	rec, ok := tc.recorders.Get().(*tape.Recorder)
	if ok {
		rec.Restart(rt, meta)
	} else {
		rec = tape.NewRecorder(rt, meta)
	}
	rec.MaxOps(maxTapedOps)
	return rec
}

// finish seals rec's recording (nil if it was declined) and returns the
// recorder to the pool. A recorder whose run panicked never gets here.
func (tc *tapeCache) finish(rec *tape.Recorder) *tape.Tape {
	t := rec.Finish()
	tc.recorders.Put(rec)
	return t
}

// maxTapedOps is the one admission rule: a recording that reaches this
// many ops abandons itself and its row is declined. Below it a tape is
// KB-sized and cost under 0.1 ms to make, so it is kept whatever the
// row; every measured row above it issues an op each 27–45 ns — the
// runtime's own cost, with no driver work between ops for a replay to
// save — and its tape would be MBs (the table is in DESIGN.md §12).
const maxTapedOps = 4096

// lookup returns the cached tape for k, if one has been published.
func (tc *tapeCache) lookup(k tapeKey) (*tape.Tape, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	t, ok := tc.tapes[k]
	return t, ok
}

// beginRecord claims the recording slot for k. It fails (false) when a
// tape is already published, another cell is mid-recording, or the row
// was declined.
func (tc *tapeCache) beginRecord(k tapeKey) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if _, ok := tc.tapes[k]; ok || tc.claimed[k] {
		return false
	}
	tc.claimed[k] = true
	return true
}

// abortRecord releases an unfulfilled recording claim (the recording
// run panicked or errored before publish).
func (tc *tapeCache) abortRecord(k tapeKey) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.claimed, k)
}

// publish installs the recorded tape and releases the claim.
func (tc *tapeCache) publish(k tapeKey, t *tape.Tape) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.claimed, k)
	tc.tapes[k] = t
}

// Tapes reports how many event tapes the engine currently caches.
func (e *Engine) Tapes() int {
	e.tapes.mu.Lock()
	defer e.tapes.mu.Unlock()
	return len(e.tapes.tapes)
}
