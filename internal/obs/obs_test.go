package obs

import (
	"math/rand"
	"testing"
	"time"
)

// TestHistogramBuckets pins the bucket function: zeros in bucket 0,
// powers of two on their boundaries, the tail clamped.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, 39}, {1 << 62, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 1; i < HistBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bucket bounds not monotone at %d", i)
		}
	}
}

// TestHistogramMergeOrderIndependent is the determinism core of the
// metrics layer: merging the same shard histograms in any permutation
// produces identical buckets, which is why aggregated distributions
// cannot depend on the -workers/-procs split that scheduled the cells.
func TestHistogramMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shards := make([]Histogram, 16)
	for i := range shards {
		for j := 0; j < 1000; j++ {
			shards[i].Record(rng.Int63n(1 << 30))
		}
	}
	merge := func(order []int) Histogram {
		var h Histogram
		for _, i := range order {
			h.Merge(&shards[i])
		}
		return h
	}
	base := make([]int, len(shards))
	for i := range base {
		base[i] = i
	}
	want := merge(base)
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(shards))
		if got := merge(perm); got != want {
			t.Fatalf("merge order %v diverged", perm)
		}
	}
	if want.Count != 16*1000 {
		t.Fatalf("merged count %d", want.Count)
	}
}

// TestHistogramQuantiles sanity-checks the conservative quantile read.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	for i := 0; i < 90; i++ {
		h.Record(100) // bucket 7, bound 128
	}
	for i := 0; i < 10; i++ {
		h.Record(100000) // bucket 17, bound 131072
	}
	if p50 := h.Quantile(0.5); p50 != 128*time.Nanosecond {
		t.Fatalf("p50 = %v, want 128ns", p50)
	}
	if p95 := h.Quantile(0.95); p95 != 131072*time.Nanosecond {
		t.Fatalf("p95 = %v, want ~131µs", p95)
	}
	if h.Max() != 131072*time.Nanosecond {
		t.Fatalf("max = %v", h.Max())
	}

	// The rank is ceil(q·Count), never truncated: the p95 of ten pauses
	// is the tenth, and the p50 of three is the second.
	var tail Histogram
	for i := 0; i < 9; i++ {
		tail.Record(100)
	}
	tail.Record(100000)
	if p95 := tail.Quantile(0.95); p95 != 131072*time.Nanosecond {
		t.Fatalf("p95 of 9×100ns and 1×100µs = %v, want 131.072µs", p95)
	}
	var three Histogram
	for _, v := range []int64{10, 1000, 100000} {
		three.Record(v)
	}
	if p50 := three.Quantile(0.5); p50 != 1024*time.Nanosecond {
		t.Fatalf("p50 of {10, 1000, 100000} ns = %v, want 1.024µs", p50)
	}
	// A product that rounds just above an integer keeps that rank:
	// 0.07·100 is 7.000000000000001, and rank 7 is the last 100 ns pause.
	var hundred Histogram
	for i := 0; i < 7; i++ {
		hundred.Record(100)
	}
	for i := 0; i < 93; i++ {
		hundred.Record(1000)
	}
	if p7 := hundred.Quantile(0.07); p7 != 128*time.Nanosecond {
		t.Fatalf("p7 of 7×100ns and 93×1µs = %v, want 128ns", p7)
	}
}

// fakeClock returns a clock factory whose clocks advance a fixed step
// per reading — each Timeline gets its own counter, so concurrent
// shards stay deterministic.
func fakeClock(step int64) func() func() int64 {
	return func() func() int64 {
		var c int64
		return func() int64 {
			c += step
			return c
		}
	}
}

// TestTimelinePhases drives the cycle protocol against a deterministic
// clock and checks the phase arithmetic and the cumulative stats.
func TestTimelinePhases(t *testing.T) {
	SetClockFactory(fakeClock(10))
	defer SetClockFactory(nil)

	var tl Timeline
	tl.CycleStart()       // t=10
	tl.CycleMarkDone(100) // t=20: mark = 10
	tl.CycleEnd(25)       // t=30: pause = 20, sweep = 10
	tl.CycleStart()       // t=40
	tl.CycleEnd(0)        // t=50: pause = 10, no mark-done: mark 0, sweep 10
	tl.CycleMarkDone(1)   // outside a cycle: ignored
	tl.CycleEnd(99)       // ignored
	s := tl.Stats()
	if s.Cycles != 2 || s.Marked != 100 || s.Freed != 25 ||
		s.PauseNS != 30 || s.MarkNS != 10 || s.SweepNS != 20 ||
		s.MaxPauseNS != 20 || s.MaxWorkers != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Pause.Count != 2 {
		t.Fatalf("pause histogram count %d", s.Pause.Count)
	}
}

// TestCycleStatsMergeOrderIndependent checks the outcome-level merge:
// any permutation of cell stats aggregates identically.
func TestCycleStatsMergeOrderIndependent(t *testing.T) {
	SetClockFactory(fakeClock(3))
	defer SetClockFactory(nil)
	rng := rand.New(rand.NewSource(7))
	cells := make([]CycleStats, 12)
	for i := range cells {
		var tl Timeline
		for c := 0; c < 1+rng.Intn(20); c++ {
			tl.CycleStart()
			tl.CycleMarkDone(uint64(rng.Intn(1000)))
			tl.CycleEnd(uint64(rng.Intn(500)))
		}
		cells[i] = tl.Stats()
	}
	merge := func(order []int) CycleStats {
		var s CycleStats
		for _, i := range order {
			s.Merge(&cells[i])
		}
		return s
	}
	base := rng.Perm(len(cells))
	want := merge(base)
	for trial := 0; trial < 10; trial++ {
		if got := merge(rng.Perm(len(cells))); got != want {
			t.Fatal("cycle-stats merge depends on order")
		}
	}
}

// TestProvenanceCapture smoke-checks the capture: constant fields
// populated, the caller's monotonic stamp carried through.
func TestProvenanceCapture(t *testing.T) {
	mono := Nanotime()
	p := Capture(mono)
	if p.OS == "" || p.Arch == "" || p.GoVersion == "" || p.CPUs < 1 || p.GoMaxProcs < 1 {
		t.Fatalf("constant fields missing: %+v", p)
	}
	if p.MonoNS != mono {
		t.Fatalf("mono stamp %d, want %d", p.MonoNS, mono)
	}
	if _, err := time.Parse(time.RFC3339Nano, p.Wall); err != nil {
		t.Fatalf("wall stamp %q: %v", p.Wall, err)
	}
	if Nanotime() < mono {
		t.Fatal("monotonic clock went backwards")
	}
}

// TestProgressCounters exercises the nil-safety and the snapshot copy.
func TestProgressCounters(t *testing.T) {
	var nilP *Progress
	nilP.Submitted("", 1) // must not panic
	nilP.SetWorkerBusy(0, 1)
	if s := nilP.Snapshot(); s.CellsTotal != 0 {
		t.Fatal("nil progress must snapshot as zero")
	}

	p := &Progress{}
	p.Submitted("", 10)
	for i := 0; i < 3; i++ {
		p.Stored("")
	}
	p.Computed("")
	p.Computed("")
	p.SetGauges(4, 1)
	p.SetWorkerBusy(1, 2)
	p.WorkerDone(1, 1)
	p.WorkerDone(7, 0) // out of range: ignored
	s := p.Snapshot()
	if s.CellsTotal != 10 || s.CellsStored != 3 || s.CellsComputed != 2 ||
		s.CellsInFlight != 1 || s.QueueDepth != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Workers) != 2 || s.Workers[0] != (WorkerSnapshot{}) ||
		s.Workers[1].Busy != 1 || s.Workers[1].Done != 1 {
		t.Fatalf("worker snapshot = %+v", s.Workers)
	}
}
