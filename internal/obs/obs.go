// Package obs is the zero-allocation observability layer: a metrics
// core the execution hot paths can record into without perturbing the
// properties the suite is built on — the 0 allocs/op steady-state
// gates and the byte-identical determinism of every rendered table.
//
// The layer has four parts:
//
//   - Histogram (hist.go): fixed-bucket log-scale distributions. A
//     value is one shift and one increment to record; merging is
//     bucket-wise addition, so shard aggregation is order-independent
//     by construction — any -workers/-procs split of the same cells
//     merges to identical buckets.
//   - Timeline (timeline.go): the per-shard cycle-phase recorder. Each
//     collection cycle adds pause/mark/sweep nanoseconds and the
//     marked/freed object counts to cumulative CycleStats. Nanotime
//     deltas are
//     taken only around cycle phases — never per runtime event — and
//     every buffer is fixed-size, so recording is branch-cheap and
//     allocation-free on the instrumented paths.
//   - Provenance (provenance.go): host, OS/arch, CPU model,
//     GOMAXPROCS, go version and load averages, stamped into stored
//     outcomes so a wall-clock measurement is meaningful after the
//     fact (which machine, how loaded).
//   - Progress (progress.go): the live ledger of a running sweep
//     (per-client cell lanes, whose sums are the cell totals; queue
//     and in-flight gauges; the count of tape replays; per-worker
//     utilization).
//     internal/serve serves them as a JSON snapshot next to
//     net/http/pprof on cgserve's listener; this package imports no
//     network code (TestNoNetworkImports), because internal/vm imports
//     it and the batch binaries should not link an HTTP stack.
//
// Determinism contract: everything wall-clock-dependent that obs
// produces (histogram buckets, phase nanoseconds, provenance) lives
// outside the deterministic payload — results carries it in dedicated
// Outcome fields that table rendering never reads, so goldens stay
// byte-identical with observability enabled.
package obs

import (
	"sync/atomic"
	"time"
)

// epoch anchors the process-monotonic clock: Nanotime is time.Since a
// fixed start, which Go computes from the monotonic reading — immune
// to wall-clock steps, allocation-free, and cheap enough to take a
// handful of times per collection cycle.
var epoch = time.Now()

// Nanotime returns the process-monotonic clock in nanoseconds. Callers
// that stamp provenance pass this in, so the stored timestamp is
// explicitly monotonic rather than a wall reading in disguise.
func Nanotime() int64 { return int64(time.Since(epoch)) }

// clockFactory, when set, replaces the monotonic clock for every
// Timeline created (or reset) afterwards. Tests install a deterministic
// counter here so phase durations — and therefore pause histograms —
// become pure functions of the cycle sequence, which is what lets the
// workers=1 vs workers=8 split be compared bucket-for-bucket.
var clockFactory atomic.Value // of func() func() int64

// SetClockFactory installs f as the source of per-Timeline clocks (each
// Timeline draws its own clock instance, so concurrent shards never
// share clock state); nil restores the monotonic default. Test-only:
// the real clock is the default and never needs installing.
func SetClockFactory(f func() func() int64) {
	if f == nil {
		clockFactory.Store((func() func() int64)(nil))
		return
	}
	clockFactory.Store(f)
}

// newClock resolves the clock for one Timeline: the installed factory's
// product, or the shared monotonic reader (no per-Timeline allocation
// on the default path).
func newClock() func() int64 {
	if f, _ := clockFactory.Load().(func() func() int64); f != nil {
		return f()
	}
	return Nanotime
}
