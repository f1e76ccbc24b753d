package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/tape"
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
// with N repeats through ExecRelease drives the workload once
// (recording) and replays the other N-1 from the shared tape; through
// RunEach, which times programs, every repeat drives.
func TestTapeCacheSharesAcrossRepeats(t *testing.T) {
	job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 5}

	tapeDriveCount.Store(0)
	execOne(t, New(1), job)
	if got := tapeDriveCount.Load(); got != 1 {
		t.Errorf("tape cache on: driver ran %d times across 5 repeats, want 1", got)
	}

	tapeDriveCount.Store(0)
	New(1).RunEach([]Job{job}, func(_ int, r Result) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if got := tapeDriveCount.Load(); got != 5 {
		t.Errorf("RunEach: driver ran %d times across 5 repeats, want 5", got)
	}
}

// TestTapeCacheBitIdentical pins the substitution property at the
// engine surface: the same matrix row produces identical collector
// statistics and heap state whether its cells drive (RunEach) or go
// through the cache (ExecRelease), in either arrival order. It does so
// on both sides of the admission rule: javac at size 1 (2.4k ops)
// records with its first cell and replays for the other two, whichever
// cell arrives first; jess at size 1 (8k ops) has its first cell's
// recording abandoned mid-run and every cell drives.
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
			"in order": func(eng *Engine, take func(int, Result)) {
				for i, job := range jobs {
					eng.ExecRelease(job, func(r Result) { take(i, r) })
				}
			},
			"reversed": func(eng *Engine, take func(int, Result)) {
				for i := len(jobs) - 1; i >= 0; i-- {
					eng.ExecRelease(jobs[i], func(r Result) { take(i, r) })
				}
			},
		}
		driven := make([]snap, len(jobs))
		New(1).RunEach(jobs, func(i int, r Result) { driven[i] = snapOf(r) })
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
			eng.Do(8, func(i int) {
				job := cell(size, "cg")
				job.GCEvery = uint64(1000 + i)
				eng.ExecRelease(job, func(r Result) {
					if r.Err != nil {
						t.Errorf("job %d: %v", i, r.Err)
					}
				})
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

// TestOneAdmissionRuleForEveryEntry pins who may tape: ExecRelease
// admits rows by the one op-count rule — it neither counts consumers
// nor records every row it sees first — and RunEach, which times
// programs, neither records nor replays, even a row ExecRelease has
// already taped. At size 1 compress (1.4k ops) and tape-count are
// shorter than the limit, db (4.3k ops) and jess (8k ops) are not.
func TestOneAdmissionRuleForEveryEntry(t *testing.T) {
	fresh := func() (*Engine, *obs.Progress) {
		p := &obs.Progress{}
		return New(1).SetProgress(p), p
	}
	run := func(eng *Engine, jobs ...Job) {
		t.Helper()
		for _, job := range jobs {
			execOne(t, eng, job)
		}
	}
	counters := func(p *obs.Progress) [3]int64 {
		s := p.Snapshot()
		return [3]int64{s.TapesRecorded, s.TapesDeclined, s.TapeReplays}
	}
	cell := func(workload, collector string) Job {
		return Job{Workload: workload, Size: 1, Collector: collector, HeapBytes: 1 << 24}
	}

	// Three rows, one cell each: the short one records although nothing
	// will replay it, the long ones decline.
	eng, p := fresh()
	run(eng, cell("compress", "cg"), cell("db", "cg"), cell("jess", "cg"))
	if got := counters(p); got != [3]int64{1, 2, 0} || eng.Tapes() != 1 {
		t.Errorf("one cell per row: recorded/declined/replays %v, %d tapes cached; want [1 2 0], 1", got, eng.Tapes())
	}
	// Further cells of the recorded row replay; further cells of a
	// declined row drive and are not judged again.
	run(eng, cell("compress", "msa"), cell("db", "msa"), cell("compress", "gen"))
	run(eng, cell("compress", "cg+recycle"), cell("jess", "msa"))
	if got := counters(p); got != [3]int64{1, 2, 3} || eng.Tapes() != 1 {
		t.Errorf("later cells of judged rows: recorded/declined/replays %v, %d tapes cached; want [1 2 3], 1", got, eng.Tapes())
	}

	// RunEach drives the taped row and judges no new one.
	tapeDriveCount.Store(0)
	eng.RunEach([]Job{cell("compress", "cg+typed"), cell("tape-count", "cg")}, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
	})
	if got := counters(p); got != [3]int64{1, 2, 3} || eng.Tapes() != 1 || tapeDriveCount.Load() != 1 {
		t.Errorf("RunEach: recorded/declined/replays %v, %d tapes cached, tape-count driven %d times; want [1 2 3], 1, 1",
			got, eng.Tapes(), tapeDriveCount.Load())
	}

	// Repeats share the tape their first repeat recorded.
	eng, p = fresh()
	tapeDriveCount.Store(0)
	run(eng, Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 4})
	if got := counters(p); got != [3]int64{1, 0, 3} || tapeDriveCount.Load() != 1 {
		t.Errorf("one job, four repeats: recorded/declined/replays %v, driver ran %d times; want [1 0 3], 1",
			got, tapeDriveCount.Load())
	}
}

// TestReusedRecordersPublishFreshTapes: the cache hands spent recorders
// from one recording to the next, across rows and workers. Short
// tape-count rows (under 1k ops) interleave with long ones (over 6k
// ops, declined) on four workers, so a recorder that abandoned a long
// row records a short one and the other way round; every published tape
// must hash like a fresh recorder's recording of its row. A recorder
// whose run panicked never goes back to the pool.
func TestReusedRecordersPublishFreshTapes(t *testing.T) {
	spec, err := workload.ByName("tape-count")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for s := 1; s <= 8; s++ {
		sizes = append(sizes, 50+s, s)
	}
	p := &obs.Progress{}
	eng := New(4).SetProgress(p)
	eng.Do(len(sizes), func(i int) {
		eng.ExecRelease(Job{Workload: "tape-count", Size: sizes[i], Collector: "cg", HeapBytes: 1 << 22}, func(r Result) {
			if r.Err != nil {
				t.Errorf("size %d: %v", sizes[i], r.Err)
			}
		})
	})
	if s := p.Snapshot(); s.TapesRecorded != 8 || s.TapesDeclined != 8 {
		t.Fatalf("%d rows recorded, %d declined; want 8, 8", s.TapesRecorded, s.TapesDeclined)
	}
	for size := 1; size <= 8; size++ {
		rt := vm.New(heap.New(1<<22), vm.None())
		rec := tape.NewRecorder(rt, tape.Meta{
			Workload: "tape-count", Size: size, Threads: spec.Threads(size), HeapBytes: spec.HeapBytes(size),
		})
		spec.Run(rt, size)
		want := tape.Hash(rec.Finish())
		if got := tape.Hash(eng.tapes.tapes[tapeKey{"tape-count", size}]); got != want {
			t.Errorf("size %d: cached tape %s, a fresh recorder's %s", size, got[:12], want[:12])
		}
	}

	eng = New(1)
	eng.ExecRelease(Job{Workload: panicWorkload, Size: 1, Collector: "cg", HeapBytes: 1 << 20}, func(r Result) {
		if r.Err == nil {
			t.Error("the panicking cell reported no error")
		}
	})
	if rec := eng.tapes.recorders.Get(); rec != nil {
		t.Error("the recorder of a run that panicked went back to the pool")
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
