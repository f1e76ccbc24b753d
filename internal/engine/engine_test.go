package engine

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	const n = 100
	var hits [n]int32
	New(8).Do(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestRunResultsInSubmissionOrder(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg"},
		{Workload: "jess", Size: 1, Collector: "msa"},
	}
	New(3).RunEach(jobs, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
			return
		}
		if r.Job.Workload != jobs[i].Workload || r.Job.Collector != jobs[i].Collector {
			t.Errorf("result %d is for %s/%s, want %s/%s",
				i, r.Job.Workload, r.Job.Collector, jobs[i].Workload, jobs[i].Collector)
		}
		if r.RT == nil || r.Col == nil {
			t.Errorf("result %d missing shard state", i)
		}
	})
}

func TestParallelMatchesSequential(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "jess", Size: 1, Collector: "cg"},
		{Workload: "raytrace", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg+noopt"},
	}
	type cell struct {
		stats core.Stats
		instr uint64
	}
	run := func(workers int) []cell {
		out := make([]cell, len(jobs))
		New(workers).RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				t.Errorf("job %d at %d workers: %v", i, workers, r.Err)
				return
			}
			out[i] = cell{r.Col.(*core.CG).Stats(), r.RT.Instr()}
		})
		return out
	}
	seq, par := run(1), run(4)
	for i := range jobs {
		if seq[i] != par[i] {
			t.Fatalf("job %d diverges between 1 and 4 workers:\n%+v\n%+v", i, seq[i], par[i])
		}
	}
}

// panicWorkload is a workload that allocates an object and then, at
// size 1, panics mid-run; at size 2 it completes.
const panicWorkload = "panicky"

func init() {
	workload.Register(workload.Spec{
		Name:      panicWorkload,
		Desc:      "panics mid-run (test fixture)",
		Threads:   func(int) int { return 1 },
		HeapBytes: func(int) int { return 1 << 20 },
		Run: func(rt *vm.Runtime, size int) {
			cls := rt.Heap.DefineClass(heap.Class{Name: "panicky.Obj", Data: 8})
			th := rt.NewThread(1)
			th.CallVoid(1, func(f *vm.Frame) {
				f.MustNew(cls)
				if size == 1 {
					panic("synthetic mid-run failure")
				}
			})
		},
	})
}

// TestRunEachSurvivesPanickingWorkload is the engine half of the failure
// contract: a job whose workload panics mid-run yields its slot as an
// error, every other slot still arrives, and the shard that panicked is
// released like every other: its heap holds no handle table.
func TestRunEachSurvivesPanickingWorkload(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: panicWorkload, Size: 1, Collector: "cg", HeapBytes: 1 << 20},
		{Workload: "db", Size: 1, Collector: "cg"},
		{Workload: panicWorkload, Size: 2, Collector: "cg", HeapBytes: 1 << 21},
	}
	eng := New(4)
	got := make([]Result, len(jobs))
	eng.RunEach(jobs, func(i int, r Result) { got[i] = r })
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "panicked") {
		t.Fatalf("panicking cell yielded %v, want a panic error", got[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if got[i].Err != nil {
			t.Fatalf("healthy cell %d errored: %v", i, got[i].Err)
		}
	}
	if rt := got[1].RT; rt == nil || rt.Heap.NumHandles() != 0 {
		t.Fatal("the shard that panicked was not released")
	}
}

// idleWorkload does nothing, so a repeat's drive takes next to no time.
const idleWorkload = "idle"

func init() {
	workload.Register(workload.Spec{
		Name:      idleWorkload,
		Desc:      "does nothing (test fixture)",
		Threads:   func(int) int { return 0 },
		HeapBytes: func(int) int { return 1 << 20 },
		Run:       func(*vm.Runtime, int) {},
	})
}

// TestElapsedIsTheProgramsTime: a RunEach job's Elapsed times each
// repeat's drive alone. Of three repeats of the idle fixture, the last
// two are built only once the previous repeat's shard has been
// released, and here each release sleeps 40 ms first; counted, it would
// raise the mean per repeat to over 26 ms.
func TestElapsedIsTheProgramsTime(t *testing.T) {
	const slowRelease = 40 * time.Millisecond
	release := releaseShard
	defer func() { releaseShard = release }()
	releaseShard = func(rt *vm.Runtime) {
		time.Sleep(slowRelease)
		release(rt)
	}
	job := Job{Workload: idleWorkload, Size: 1, Collector: "cg", Repeats: 3}
	New(1).RunEach([]Job{job}, func(_ int, r Result) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Elapsed >= slowRelease/4 {
			t.Errorf("Elapsed = %v: the repeats' slow release is in it", r.Elapsed)
		}
	})
}

func TestExecErrors(t *testing.T) {
	if r := Exec(Job{Workload: "nosuch", Size: 1, Collector: "cg"}); r.Err == nil {
		t.Fatal("unknown workload must error")
	}
	if r := Exec(Job{Workload: "compress", Size: 1, Collector: "nosuch"}); r.Err == nil {
		t.Fatal("unknown collector must error")
	}
	if r := Exec(Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: -7}); r.Err == nil {
		t.Fatal("negative heap budget must error")
	}
}

func TestExecRecoversShardPanic(t *testing.T) {
	// A 1 KiB arena cannot hold any analog's live set: the shard hits a
	// hard OOM panic, which must surface as Result.Err, not crash the
	// matrix.
	r := Exec(Job{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: 1 << 10})
	if r.Err == nil {
		t.Fatal("OOM shard must report an error")
	}
}

func TestRepeatsUseFreshShards(t *testing.T) {
	one := Exec(Job{Workload: "db", Size: 1, Collector: "cg"})
	five := Exec(Job{Workload: "db", Size: 1, Collector: "cg", Repeats: 5})
	if one.Err != nil || five.Err != nil {
		t.Fatalf("unexpected errors: %v, %v", one.Err, five.Err)
	}
	// The last repeat's collector saw exactly one run's worth of
	// allocations: repeats do not accumulate state.
	a := one.Col.(*core.CG).Stats().Created
	b := five.Col.(*core.CG).Stats().Created
	if a != b {
		t.Fatalf("repeat shard created %d objects, single run %d", b, a)
	}
}

func TestTightHeapBudget(t *testing.T) {
	r := Exec(Job{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: TightHeap})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	spec, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.RT.Heap.Arena().Size(), spec.HeapBytes(1); got != want {
		t.Fatalf("tight shard arena = %d bytes, want the workload budget %d", got, want)
	}
	big := Exec(Job{Workload: "compress", Size: 1, Collector: "msa"})
	if got := big.RT.Heap.Arena().Size(); got != DemographicsArena {
		t.Fatalf("default shard arena = %d bytes, want %d", got, DemographicsArena)
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("workers must default to at least 1")
	}
	if New(7).Workers() != 7 {
		t.Fatal("explicit worker count must stick")
	}
}

func TestRunEachConsumesEveryCellInIndexSlot(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "msa"},
		{Workload: "nosuch", Size: 1, Collector: "cg"},
	}
	got := make([]Result, len(jobs))
	New(3).RunEach(jobs, func(i int, r Result) { got[i] = r })
	if got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("good cells errored: %v, %v", got[0].Err, got[1].Err)
	}
	if got[0].Job.Workload != "compress" || got[1].Job.Workload != "db" {
		t.Fatal("results landed in the wrong slots")
	}
	if got[2].Err == nil {
		t.Fatal("bad cell must carry its error")
	}
}

// TestArenaBudgetAboveMaxIsAnError: a heap budget no int32 extent can
// address is refused as the job's error — before any arena is built, so
// neither a panic nor a silently truncated sweep address can follow.
func TestArenaBudgetAboveMaxIsAnError(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("no int exceeds heap.MaxArenaBytes on a 32-bit host")
	}
	over := heap.MaxArenaBytes
	over++
	job := Job{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: over}
	if _, err := ArenaBytes(job); err == nil || !strings.Contains(err.Error(), "largest arena") {
		t.Fatalf("ArenaBytes(%d) = %v, want the largest-arena error", over, err)
	}
	if r := Exec(job); r.Err == nil || strings.Contains(r.Err.Error(), "panicked") {
		t.Fatalf("Exec above the limit: %v, want a plain error", r.Err)
	}
	if _, err := ArenaBytes(Job{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: heap.MaxArenaBytes}); err != nil {
		t.Fatalf("the limit itself must be admitted: %v", err)
	}
}
