package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// tapeDriveCount counts how many times the counting workload's driver
// actually ran — replayed cells never touch it, which is the whole
// point of the cache.
var tapeDriveCount atomic.Int64

func init() {
	workload.Register(workload.Spec{
		Name:      "tape-count",
		Desc:      "test workload counting driver executions",
		Threads:   func(int) int { return 1 },
		HeapBytes: func(int) int { return 1 << 20 },
		Run: func(rt *vm.Runtime, size int) {
			tapeDriveCount.Add(1)
			c := rt.Heap.DefineClass(heap.Class{Name: "obj", Refs: 1, Data: 8})
			th := rt.NewThread(2)
			th.CallVoid(1, func(f *vm.Frame) {
				prev := f.MustNew(c)
				for i := 0; i < 40*size; i++ {
					o := f.MustNew(c)
					f.PutField(o, 0, prev)
					f.SetLocal(0, o)
					prev = o
				}
			})
		},
	})
}

// TestTapeCacheSharesAcrossRepeats pins the Repeats contract: one job
// with N repeats drives the workload once (recording) and replays the
// other N-1 from the shared tape; with the cache off every repeat
// drives.
func TestTapeCacheSharesAcrossRepeats(t *testing.T) {
	job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 5}

	tapeDriveCount.Store(0)
	r := New(1).Exec(job)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := tapeDriveCount.Load(); got != 1 {
		t.Errorf("tape cache on: driver ran %d times across 5 repeats, want 1", got)
	}

	tapeDriveCount.Store(0)
	r = New(1).SetTapeCache(false).Exec(job)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := tapeDriveCount.Load(); got != 5 {
		t.Errorf("tape cache off: driver ran %d times across 5 repeats, want 5", got)
	}
}

// TestTapeCacheBitIdentical pins the substitution property at the
// engine surface: the same matrix row produces identical collector
// statistics and heap state however its cells were driven — one at a
// time through the cache (the first records, the rest replay), as one
// planned batch (three consumers: record once, replay twice), as
// single-consumer batches (nothing recorded, every cell drives), and
// with the cache disabled.
func TestTapeCacheBitIdentical(t *testing.T) {
	jobs := []Job{
		{Workload: "jess", Size: 1, Collector: "cg", HeapBytes: 1 << 24},
		{Workload: "jess", Size: 1, Collector: "cg+recycle", HeapBytes: 1 << 24},
		{Workload: "jess", Size: 1, Collector: "cg", HeapBytes: 1 << 24, GCEvery: 900},
	}
	type snap struct {
		stats core.Stats
		hs    heap.Stats
		instr uint64
	}
	snapOf := func(r Result) snap {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return snap{r.Col.(*core.CG).Stats(), r.RT.Heap.Stats(), r.RT.Instr()}
	}
	collect := func(eng *Engine) []snap {
		out := make([]snap, len(jobs))
		for i, job := range jobs {
			out[i] = snapOf(eng.Exec(job))
		}
		return out
	}
	cached := collect(New(1))
	driven := collect(New(1).SetTapeCache(false))

	batched := make([]snap, len(jobs))
	p := &obs.Progress{}
	New(1).SetProgress(p).RunEach(jobs, func(i int, r Result) { batched[i] = snapOf(r) })
	if s := p.Snapshot(); s.TapesRecorded != 1 || s.TapeReplays != 2 {
		t.Errorf("one batch of the row: recorded %d / replays %d, want 1 / 2", s.TapesRecorded, s.TapeReplays)
	}

	alone := make([]snap, len(jobs))
	p = &obs.Progress{}
	eng := New(1).SetProgress(p)
	for i, job := range jobs {
		eng.RunEach([]Job{job}, func(_ int, r Result) { alone[i] = snapOf(r) })
	}
	if s := p.Snapshot(); s.TapesRecorded != 0 || s.TapeReplays != 0 {
		t.Errorf("single-consumer batches: recorded %d / replays %d, want 0 / 0", s.TapesRecorded, s.TapeReplays)
	}

	for i := range jobs {
		for how, got := range map[string]snap{"cached": cached[i], "batched": batched[i], "alone": alone[i]} {
			if got != driven[i] {
				t.Errorf("job %d: %s cell differs from the driven cell\n%s: %+v\ndriven: %+v",
					i, how, how, got, driven[i])
			}
		}
	}
}

// TestRunEachRecordsOnlyForASecondConsumer pins the recording rule: a
// RunEach batch is the engine's view of the grid, and a row claims the
// recording slot only when the batch holds someone to replay the tape.
func TestRunEachRecordsOnlyForASecondConsumer(t *testing.T) {
	run := func(eng *Engine, jobs ...Job) {
		t.Helper()
		eng.RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				t.Errorf("job %d: %v", i, r.Err)
			}
		})
	}
	counters := func(p *obs.Progress) [2]int64 {
		s := p.Snapshot()
		return [2]int64{s.TapesRecorded, s.TapeReplays}
	}
	cell := func(workload, collector string) Job {
		return Job{Workload: workload, Size: 1, Collector: collector, HeapBytes: 1 << 24}
	}

	// Three rows, one consumer each: every cell drives, nothing stays
	// resident.
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	run(eng, cell("compress", "cg"), cell("db", "cg"), cell("jess", "cg"))
	if got := counters(p); got != [2]int64{0, 0} || eng.Tapes() != 0 {
		t.Errorf("single-consumer rows: recorded/replays %v, %d tapes cached; want [0 0], 0", got, eng.Tapes())
	}

	// k consumers of one row — distinct collectors — record once and
	// replay k-1 times; the lone db cell beside them still just drives.
	p = &obs.Progress{}
	eng = New(1).SetProgress(p)
	run(eng, cell("compress", "cg"), cell("db", "cg"), cell("compress", "msa"), cell("compress", "gen"))
	if got := counters(p); got != [2]int64{1, 2} || eng.Tapes() != 1 {
		t.Errorf("three collectors over one row: recorded/replays %v, %d tapes cached; want [1 2], 1", got, eng.Tapes())
	}
	// A later batch's single consumer replays the tape that is there.
	run(eng, cell("compress", "cg+recycle"))
	if got := counters(p); got != [2]int64{1, 3} {
		t.Errorf("single consumer of a cached row: recorded/replays %v, want [1 3]", got)
	}

	// Repeats are consumers too: one job, k repeats.
	p = &obs.Progress{}
	eng = New(1).SetProgress(p)
	tapeDriveCount.Store(0)
	run(eng, Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 4})
	if got := counters(p); got != [2]int64{1, 3} || tapeDriveCount.Load() != 1 {
		t.Errorf("one job, four repeats: recorded/replays %v, driver ran %d times; want [1 3], 1",
			got, tapeDriveCount.Load())
	}

	// A job that arrives alone has no batch to plan against and records
	// on first sight, as the server and the worker processes rely on.
	p = &obs.Progress{}
	eng = New(1).SetProgress(p)
	eng.ExecRelease(cell("compress", "cg"), func(r Result) {
		if r.Err != nil {
			t.Error(r.Err)
		}
	})
	if got := counters(p); got != [2]int64{1, 0} || eng.Tapes() != 1 {
		t.Errorf("ExecRelease outside a batch: recorded/replays %v, %d tapes cached; want [1 0], 1", got, eng.Tapes())
	}
}

// TestTapeCacheProgressCounters checks the /progress accounting: one
// recording for the row, one replay per subsequent cell.
func TestTapeCacheProgressCounters(t *testing.T) {
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	for _, col := range []string{"cg", "msa", "gen"} {
		r := eng.Exec(Job{Workload: "compress", Size: 1, Collector: col, HeapBytes: 1 << 24})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s := p.Snapshot()
	if s.TapesRecorded != 1 || s.TapeReplays != 2 {
		t.Errorf("recorded %d / replays %d, want 1 / 2", s.TapesRecorded, s.TapeReplays)
	}
	if eng.Tapes() != 1 {
		t.Errorf("engine caches %d tapes, want 1", eng.Tapes())
	}
}

// TestTapeCacheClears pins cache invalidation: a cap change rebinds
// the reserve (cached charges belonged to the old regime), and
// disabling the cache drops it entirely.
func TestTapeCacheClears(t *testing.T) {
	eng := New(1).SetMaxHeapBytes(1 << 26)
	if r := eng.Exec(Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 1 << 22}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if eng.Tapes() != 1 {
		t.Fatalf("expected 1 cached tape, have %d", eng.Tapes())
	}
	eng.SetMaxHeapBytes(1 << 27)
	if eng.Tapes() != 0 {
		t.Errorf("cap change left %d cached tapes", eng.Tapes())
	}
	if got := eng.ReservedBytes(); got != 0 {
		t.Errorf("cap change left %d reserved bytes", got)
	}

	if r := eng.Exec(Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 1 << 22}); r.Err != nil {
		t.Fatal(r.Err)
	}
	before := eng.ReservedBytes()
	if eng.Tapes() != 1 || before == 0 {
		t.Fatalf("expected 1 cached tape holding reserve, have %d tapes, %d bytes", eng.Tapes(), before)
	}
	eng.SetTapeCache(false)
	if eng.Tapes() != 0 || eng.TapeCache() {
		t.Error("SetTapeCache(false) left the cache populated")
	}
	if got := eng.ReservedBytes(); got != 0 {
		t.Errorf("disabling the cache left %d reserved bytes", got)
	}
}
