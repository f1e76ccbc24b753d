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
// actually ran. The row ships no tape, so every cell of it drives.
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

// replays runs jobs one by one through ExecRelease on a fresh
// one-worker engine and returns how many repeats replayed a tape.
func replays(t *testing.T, jobs ...Job) int64 {
	t.Helper()
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	for _, job := range jobs {
		execOne(t, eng, job)
	}
	return p.Snapshot().TapeReplays
}

// TestTapeCacheSharesAcrossRepeats pins the Repeats contract: one job
// of a seeded row with N repeats through ExecRelease replays the one
// shipped tape N times; through RunEach, which times programs, every
// repeat drives.
func TestTapeCacheSharesAcrossRepeats(t *testing.T) {
	job := Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 1 << 24, Repeats: 5}
	if got := replays(t, job); got != 5 {
		t.Errorf("ExecRelease: %d of 5 repeats replayed, want 5", got)
	}

	p := &obs.Progress{}
	New(1).SetProgress(p).RunEach([]Job{job}, func(_ int, r Result) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if got := p.Snapshot().TapeReplays; got != 0 {
		t.Errorf("RunEach: %d of 5 repeats replayed, want 0", got)
	}
}

// TestTapeCacheBitIdentical pins the substitution property at the
// engine surface: the same matrix row produces identical collector
// statistics and heap state whether its cells drive (RunEach) or go
// through ExecRelease. It does so on both sides of the admission rule:
// javac at size 1 (2.4k ops) ships a tape and all three cells replay
// it; jess at size 1 (8k ops) ships none and every cell drives.
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
	for row, want := range map[string]int64{"javac": 3, "jess": 0} {
		jobs := []Job{
			{Workload: row, Size: 1, Collector: "cg", HeapBytes: 1 << 24},
			{Workload: row, Size: 1, Collector: "cg+recycle", HeapBytes: 1 << 24},
			{Workload: row, Size: 1, Collector: "cg", HeapBytes: 1 << 24, GCEvery: 900},
		}
		driven := make([]snap, len(jobs))
		New(1).RunEach(jobs, func(i int, r Result) { driven[i] = snapOf(r) })
		p := &obs.Progress{}
		eng := New(1).SetProgress(p)
		for i, job := range jobs {
			eng.ExecRelease(job, func(r Result) {
				if got := snapOf(r); got != driven[i] {
					t.Errorf("%s job %d: ExecRelease's cell differs from the driven cell\ngot:    %+v\ndriven: %+v",
						row, i, got, driven[i])
				}
			})
		}
		if got := p.Snapshot().TapeReplays; got != want {
			t.Errorf("%s: %d replays, want %d", row, got, want)
		}
	}
}

// TestTapeAdmissionByOpCount pins the engine's side of the admission
// rule, which TestSeedTapesAreCurrent applies when the seeds are made:
// a seeded row replays from its first cell, a row that ships none drives
// every cell, repeats included, and concurrent cells of a row, decoding
// its seed or not, all get the row's verdict.
func TestTapeAdmissionByOpCount(t *testing.T) {
	t.Run("a seeded row replays from its first cell", func(t *testing.T) {
		if got := replays(t, Job{Workload: "compress", Size: 100, Collector: "cg"},
			Job{Workload: "compress", Size: 100, Collector: "msa"}); got != 2 {
			t.Errorf("%d of 2 cells replayed, want 2", got)
		}
	})

	t.Run("an unseeded row drives every cell", func(t *testing.T) {
		tapeDriveCount.Store(0)
		job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 22, Repeats: 3}
		if got := replays(t, job, Job{Workload: "jess", Size: 1, Collector: "msa"}); got != 0 {
			t.Errorf("%d replays, want 0", got)
		}
		if got := tapeDriveCount.Load(); got != 3 {
			t.Errorf("tape-count drove %d of 3 repeats, want all", got)
		}
	})

	t.Run("concurrent cells of a row get one verdict", func(t *testing.T) {
		for row, want := range map[string]int64{"mpegaudio": 8, "jess": 0} {
			p := &obs.Progress{}
			eng := New(4).SetProgress(p)
			eng.Do(8, func(i int) {
				job := Job{Workload: row, Size: 10, Collector: "cg", GCEvery: uint64(1000 + i)}
				eng.ExecRelease(job, func(r Result) {
					if r.Err != nil {
						t.Errorf("%s job %d: %v", row, i, r.Err)
					}
				})
			})
			if got := p.Snapshot().TapeReplays; got != want {
				t.Errorf("%s: %d of 8 cells replayed, want %d", row, got, want)
			}
		}
	})
}

// TestOneAdmissionRuleForEveryEntry pins who may replay: ExecRelease
// replays exactly the seeded rows, from their first cell, and RunEach
// and Exec, which time programs, never replay, not even a seeded row.
// At size 1 compress (1.4k ops) ships a tape; db (4.3k ops), jess (8k
// ops) and the tape-count fixture do not.
func TestOneAdmissionRuleForEveryEntry(t *testing.T) {
	cell := func(workload, collector string) Job {
		return Job{Workload: workload, Size: 1, Collector: collector, HeapBytes: 1 << 24}
	}
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	for _, job := range []Job{cell("compress", "cg"), cell("db", "cg"), cell("jess", "cg"),
		cell("compress", "msa"), cell("db", "msa"), cell("compress", "gen")} {
		execOne(t, eng, job)
	}
	if got := p.Snapshot().TapeReplays; got != 3 {
		t.Errorf("ExecRelease: %d replays, want the 3 compress cells", got)
	}

	tapeDriveCount.Store(0)
	eng.RunEach([]Job{cell("compress", "cg+typed"), cell("tape-count", "cg")}, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
	})
	if r := Exec(cell("compress", "cg")); r.Err != nil {
		t.Error(r.Err)
	}
	if got := p.Snapshot().TapeReplays; got != 3 || tapeDriveCount.Load() != 1 {
		t.Errorf("RunEach and Exec: %d replays in all, tape-count driven %d times; want 3, 1",
			got, tapeDriveCount.Load())
	}
}

// TestTapeCacheProgressCounters checks the /progress accounting: one
// replay per cell of a seeded row, and no recording.
func TestTapeCacheProgressCounters(t *testing.T) {
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	for _, col := range []string{"cg", "msa", "gen"} {
		execOne(t, eng, Job{Workload: "compress", Size: 1, Collector: col, HeapBytes: 1 << 24})
	}
	if s := p.Snapshot(); s.TapesRecorded != 0 || s.TapeReplays != 3 {
		t.Errorf("recorded %d / replays %d, want 0 / 3", s.TapesRecorded, s.TapeReplays)
	}
}
