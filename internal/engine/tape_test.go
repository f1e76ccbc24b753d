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

// execOne runs one job through ExecRelease and fails the test on its
// error.
func execOne(t *testing.T, eng *Engine, job Job) {
	t.Helper()
	eng.ExecRelease(job, func(r Result) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	})
}

// TestTapeCacheSharesAcrossRepeats pins the Repeats contract: one job
// with N repeats drives the workload once (recording) and replays the
// other N-1 from the shared tape; with the cache off every repeat
// drives.
func TestTapeCacheSharesAcrossRepeats(t *testing.T) {
	job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 5}

	tapeDriveCount.Store(0)
	execOne(t, New(1), job)
	if got := tapeDriveCount.Load(); got != 1 {
		t.Errorf("tape cache on: driver ran %d times across 5 repeats, want 1", got)
	}

	tapeDriveCount.Store(0)
	execOne(t, New(1).SetTapeCache(false), job)
	if got := tapeDriveCount.Load(); got != 5 {
		t.Errorf("tape cache off: driver ran %d times across 5 repeats, want 5", got)
	}
}

// TestTapeCacheBitIdentical pins the substitution property at the
// engine surface: the same matrix row produces identical collector
// statistics and heap state however its cells were run — one at a time
// through the cache, as one batch, as one-cell batches, and with the
// cache disabled. It does so on both sides of the admission rule: javac
// at size 1 (2.4k ops) records with its first cell and replays for the
// other two, whichever way they arrive; jess at size 1 (8k ops) has its
// first cell's recording abandoned mid-run and every cell drives.
func TestTapeCacheBitIdentical(t *testing.T) {
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
	type verdicts struct{ recorded, declined, replays int64 }
	for row, want := range map[string]verdicts{
		"javac": {recorded: 1, replays: 2},
		"jess":  {declined: 1},
	} {
		jobs := []Job{
			{Workload: row, Size: 1, Collector: "cg", HeapBytes: 1 << 24},
			{Workload: row, Size: 1, Collector: "cg+recycle", HeapBytes: 1 << 24},
			{Workload: row, Size: 1, Collector: "cg", HeapBytes: 1 << 24, GCEvery: 900},
		}
		// Each way hands every Result to take while its shard is valid.
		ways := map[string]func(eng *Engine, take func(i int, r Result)){
			"cached": func(eng *Engine, take func(int, Result)) {
				for i, job := range jobs {
					eng.ExecRelease(job, func(r Result) { take(i, r) })
				}
			},
			"batched": func(eng *Engine, take func(int, Result)) { eng.RunEach(jobs, take) },
			"alone": func(eng *Engine, take func(int, Result)) {
				for i, job := range jobs {
					eng.RunEach([]Job{job}, func(_ int, r Result) { take(i, r) })
				}
			},
		}
		driven := make([]snap, len(jobs))
		ways["cached"](New(1).SetTapeCache(false), func(i int, r Result) { driven[i] = snapOf(r) })
		for how, run := range ways {
			p := &obs.Progress{}
			run(New(1).SetProgress(p), func(i int, r Result) {
				if got := snapOf(r); got != driven[i] {
					t.Errorf("%s job %d: %s cell differs from the driven cell\n%s: %+v\ndriven: %+v",
						row, i, how, how, got, driven[i])
				}
			})
			s := p.Snapshot()
			if got := (verdicts{s.TapesRecorded, s.TapesDeclined, s.TapeReplays}); got != want {
				t.Errorf("%s, %s: recorded/declined/replays %+v, want %+v", row, how, got, want)
			}
		}
	}
}

// TestTapeAdmissionByOpCount pins the admission rule: a recording that
// reaches maxTapedOps abandons itself and its row is declined for good;
// a shorter one completes and is replayed. The tape-count row issues
// ~120 ops per unit of size: size 1 is a fraction of the limit, size
// 100 nearly three times it.
func TestTapeAdmissionByOpCount(t *testing.T) {
	cell := func(size int, collector string) Job {
		return Job{Workload: "tape-count", Size: size, Collector: collector, HeapBytes: 1 << 22}
	}
	type want struct{ recorded, declined, replays, drives int64 }
	check := func(t *testing.T, eng *Engine, p *obs.Progress, w want) {
		t.Helper()
		s := p.Snapshot()
		got := want{s.TapesRecorded, s.TapesDeclined, s.TapeReplays, tapeDriveCount.Load()}
		if got != w {
			t.Errorf("recorded/declined/replays/drives %+v, want %+v", got, w)
		}
		if int64(eng.Tapes()) != w.recorded {
			t.Errorf("%d tapes cached, want %d", eng.Tapes(), w.recorded)
		}
	}
	engine := func(workers int) (*Engine, *obs.Progress) {
		tapeDriveCount.Store(0)
		p := &obs.Progress{}
		return New(workers).SetProgress(p), p
	}
	run := func(t *testing.T, eng *Engine, jobs ...Job) {
		t.Helper()
		for _, job := range jobs {
			execOne(t, eng, job)
		}
	}

	t.Run("a short row records and its next cell replays", func(t *testing.T) {
		eng, p := engine(1)
		run(t, eng, cell(1, "cg"))
		check(t, eng, p, want{recorded: 1, drives: 1})
		run(t, eng, cell(1, "msa"))
		check(t, eng, p, want{recorded: 1, replays: 1, drives: 1})
	})

	t.Run("a long row abandons its recording, for good", func(t *testing.T) {
		eng, p := engine(1)
		job := cell(100, "cg")
		job.Repeats = 3
		run(t, eng, job)
		check(t, eng, p, want{declined: 1, drives: 3}) // repeats 2 and 3 drive
		if eng.tapes.beginRecord(tapeKey{"tape-count", 100}) {
			t.Error("a declined row gave its recording slot away again")
		}
		run(t, eng, cell(100, "msa"), cell(100, "gen"))
		check(t, eng, p, want{declined: 1, drives: 5})
	})

	t.Run("concurrent cells of a row get one verdict", func(t *testing.T) {
		batch := func(eng *Engine, size int) {
			jobs := make([]Job, 8)
			for i := range jobs {
				jobs[i] = cell(size, "cg")
				jobs[i].GCEvery = uint64(1000 + i)
			}
			eng.RunEach(jobs, func(i int, r Result) {
				if r.Err != nil {
					t.Errorf("job %d: %v", i, r.Err)
				}
			})
		}
		eng, p := engine(4)
		batch(eng, 100)
		check(t, eng, p, want{declined: 1, drives: 8})

		// A short row: one cell records, and each of the others drove
		// beside the recording in flight or replayed what it published.
		eng, p = engine(4)
		batch(eng, 1)
		replays := p.Snapshot().TapeReplays
		check(t, eng, p, want{recorded: 1, replays: replays, drives: 8 - replays})
	})
}

// TestOneAdmissionRuleForEveryEntry pins that RunEach and ExecRelease
// both admit tapes by the one op-count rule — no entry counts
// consumers and none records every row it sees first. At size 1
// compress (1.4k ops) and tape-count are shorter than the limit, db
// (4.3k ops) and jess (8k ops) are not.
func TestOneAdmissionRuleForEveryEntry(t *testing.T) {
	fresh := func() (*Engine, *obs.Progress) {
		p := &obs.Progress{}
		return New(1).SetProgress(p), p
	}
	run := func(eng *Engine, jobs ...Job) {
		t.Helper()
		eng.RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				t.Errorf("job %d: %v", i, r.Err)
			}
		})
	}
	counters := func(p *obs.Progress) [3]int64 {
		s := p.Snapshot()
		return [3]int64{s.TapesRecorded, s.TapesDeclined, s.TapeReplays}
	}
	cell := func(workload, collector string) Job {
		return Job{Workload: workload, Size: 1, Collector: collector, HeapBytes: 1 << 24}
	}

	// Three rows, one cell each: the short one records although nothing
	// in the batch will replay it, the long ones decline.
	eng, p := fresh()
	run(eng, cell("compress", "cg"), cell("db", "cg"), cell("jess", "cg"))
	if got := counters(p); got != [3]int64{1, 2, 0} || eng.Tapes() != 1 {
		t.Errorf("one cell per row: recorded/declined/replays %v, %d tapes cached; want [1 2 0], 1", got, eng.Tapes())
	}
	// Further cells of the recorded row replay, in this batch and the
	// next; further cells of a declined row drive and are not judged
	// again.
	run(eng, cell("compress", "msa"), cell("db", "msa"), cell("compress", "gen"))
	run(eng, cell("compress", "cg+recycle"), cell("jess", "msa"))
	if got := counters(p); got != [3]int64{1, 2, 3} || eng.Tapes() != 1 {
		t.Errorf("later cells of judged rows: recorded/declined/replays %v, %d tapes cached; want [1 2 3], 1", got, eng.Tapes())
	}

	// Repeats share the tape their first repeat recorded.
	eng, p = fresh()
	tapeDriveCount.Store(0)
	run(eng, Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 4})
	if got := counters(p); got != [3]int64{1, 0, 3} || tapeDriveCount.Load() != 1 {
		t.Errorf("one job, four repeats: recorded/declined/replays %v, driver ran %d times; want [1 0 3], 1",
			got, tapeDriveCount.Load())
	}

	// The single-job entry reaches the same verdicts as the batch did.
	eng, p = fresh()
	for _, job := range []Job{cell("compress", "cg"), cell("db", "cg"), cell("jess", "cg")} {
		execOne(t, eng, job)
	}
	if got := counters(p); got != [3]int64{1, 2, 0} || eng.Tapes() != 1 {
		t.Errorf("ExecRelease: recorded/declined/replays %v, %d tapes cached; want [1 2 0], 1", got, eng.Tapes())
	}
}

// TestTapeCacheProgressCounters checks the /progress accounting: one
// recording for the row, one replay per subsequent cell.
func TestTapeCacheProgressCounters(t *testing.T) {
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	for _, col := range []string{"cg", "msa", "gen"} {
		execOne(t, eng, Job{Workload: "compress", Size: 1, Collector: col, HeapBytes: 1 << 24})
	}
	s := p.Snapshot()
	if s.TapesRecorded != 1 || s.TapeReplays != 2 {
		t.Errorf("recorded %d / replays %d, want 1 / 2", s.TapesRecorded, s.TapeReplays)
	}
	if eng.Tapes() != 1 {
		t.Errorf("engine caches %d tapes, want 1", eng.Tapes())
	}
}

// TestTapeCacheClears pins that disabling the cache drops its tapes.
func TestTapeCacheClears(t *testing.T) {
	eng := New(1)
	execOne(t, eng, Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 1 << 22})
	if eng.Tapes() != 1 {
		t.Fatalf("expected 1 cached tape, have %d", eng.Tapes())
	}
	eng.SetTapeCache(false)
	if eng.Tapes() != 0 || eng.TapeCache() {
		t.Error("SetTapeCache(false) left the cache populated")
	}
}
