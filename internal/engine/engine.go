// Package engine is the sharded execution engine: it runs (workload,
// size, collector) cells of the experiment matrix on independent
// vm.Runtime shards. It queues nothing across callers — that is
// results.Scheduler's job — and has four entries: ExecRelease, the cell
// pipeline's (results.Local) and the only one that may replay a shipped
// event tape, and RunEach, Do and Exec, which always drive the program,
// so the Elapsed they report is the program's time.
//
// Each vm.Runtime owns its heap, threads, statics and collector, and
// every workload analog draws from its own deterministic RNG, so a cell
// shares no mutable state with any other cell — the matrix is
// embarrassingly parallel. The engine exploits that: it fans jobs out
// to a fixed pool of workers and writes each result into the slot of
// its job index, so callers always observe results in submission order
// no matter which worker finished first. Merging is therefore
// deterministic and order-independent by construction: a -workers 32
// run renders byte-identical tables to a -workers 1 run (for the
// demographics experiments; wall-clock measurements naturally vary).
//
// Layering: engine sits between the experiment harness above and the
// runtime/collector substrate below. It resolves workloads from the
// internal/workload registry and collectors from the internal/collectors
// grammar, so adding a benchmark or collector variant requires no
// engine change.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// DemographicsArena is the big-heap shard configuration used for object
// accounting ("asynchronous GC disabled as well as giving it plenty of
// storage", §4.5): the traditional collector never runs, so every
// object is classified purely by CG.
const DemographicsArena = 512 << 20

// TightHeap, as a Job.HeapBytes value, selects the workload's own tight
// arena budget (workload.Spec.HeapBytes) so the traditional collector
// actually has to work — the §4.5 timing configuration.
const TightHeap = -1

// Job is one cell of the experiment matrix.
type Job struct {
	// Workload names a registered benchmark analog.
	Workload string
	// Size is the SPEC problem size (1, 10 or 100).
	Size int
	// Collector is a collector spec resolved by internal/collectors
	// (e.g. "cg", "msa", "cg+recycle+reset").
	Collector string
	// HeapBytes is the shard's arena budget: a positive byte count,
	// 0 for DemographicsArena, or TightHeap for the workload's own
	// pressure-inducing budget.
	HeapBytes int
	// GCEvery, when non-zero, forces a full collection every GCEvery
	// runtime operations (the §4.7 resetting instrumentation).
	GCEvery uint64
	// Repeats re-runs the cell on fresh shards (minimum 1). Result
	// captures the last shard and the mean wall time per repeat; small
	// cells finish in well under a millisecond, so timing experiments
	// repeat them to keep scheduler jitter out of the comparison.
	Repeats int
}

// Result is the outcome of one Job.
type Result struct {
	// Job echoes the submitted cell.
	Job Job
	// RT is the runtime shard of the last repeat (or of the repeat that
	// failed). It is quiescent: no engine goroutine touches it once the
	// job completes.
	RT *vm.Runtime
	// Col is the concrete collector of the last repeat (the event
	// table's Collector field); callers type-assert it (e.g. to
	// *core.CG) to extract statistics. Nil under the "none" table.
	Col any
	// Elapsed is the mean wall time per repeat of the drive or replay
	// alone; building the shard and attaching the collector are not in
	// it.
	Elapsed time.Duration
	// Err is non-nil if the spec failed to resolve or the run panicked
	// (workloads panic on hard OOM; the engine converts that to an
	// error so one exhausted shard cannot take down the matrix).
	Err error
}

// ArenaBytes resolves the arena budget a job's shard will allocate: an
// explicit positive HeapBytes, the plenty-of-storage demographics
// default, or the workload's own tight budget.
func ArenaBytes(job Job) (int, error) {
	switch {
	case job.HeapBytes > heap.MaxArenaBytes:
		return 0, fmt.Errorf("engine: heap budget %d exceeds the largest arena, %d bytes", job.HeapBytes, heap.MaxArenaBytes)
	case job.HeapBytes > 0:
		return job.HeapBytes, nil
	case job.HeapBytes == 0:
		return DemographicsArena, nil
	case job.HeapBytes == TightHeap:
		spec, err := workload.ByName(job.Workload)
		if err != nil {
			return 0, err
		}
		return spec.HeapBytes(job.Size), nil
	default:
		return 0, fmt.Errorf("engine: bad heap budget %d", job.HeapBytes)
	}
}

// Exec runs one job synchronously in the caller's goroutine on a fresh
// shard, with no engine and no tape — it always drives. The Result's RT
// is the caller's to keep and nothing releases it, so no product path
// calls Exec: the cell pipeline, the matrices and Fig 4.13's
// calibration go through ExecRelease or RunEach. It stays for the
// frozen bench module.
func Exec(job Job) Result { return exec(job, nil, nil) }

// exec is the shared job body. Each repeat builds its own shard and
// releases the previous repeat's before building it, so at most one
// shard is held at a time and only the last one escapes in the Result;
// exec never releases that one — a caller that drops the Result does
// (see ExecRelease).
//
// With a non-nil ts — ExecRelease's, and no other entry's — a row that
// ships a tape replays its recorded operation stream through the
// runtime instead of re-running driver logic (bit-identical results, no
// driver overhead), every repeat from the first; p counts the replays.
// Every other row drives.
func exec(job Job, ts *seeds, p *obs.Progress) (res Result) {
	res.Job = job
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("engine: %s/%d under %s panicked: %v",
				job.Workload, job.Size, job.Collector, r)
		}
	}()

	spec, err := workload.ByName(job.Workload)
	if err != nil {
		res.Err = err
		return res
	}
	factory, err := collectors.Parse(job.Collector)
	if err != nil {
		res.Err = err
		return res
	}
	bytes, err := ArenaBytes(job)
	if err != nil {
		res.Err = err
		return res
	}
	reps := job.Repeats
	if reps < 1 {
		reps = 1
	}

	var rp *tape.Replayer
	if ts != nil {
		t, err := ts.lookup(tapeKey{workload: job.Workload, size: job.Size})
		if err != nil {
			res.Err = err
			return res
		}
		if t != nil {
			rp = tape.NewReplayer(t)
		}
	}

	// Only the drive or replay is timed: releasing the last repeat's
	// shard, building this one and attaching its collector, which maps
	// its side tables, are not the program's time.
	var elapsed time.Duration
	for i := 0; i < reps; i++ {
		if res.RT != nil {
			releaseShard(res.RT)
		}
		// The forced-collection instrumentation is a declarative field
		// of the event table: decorating the descriptor replaces the
		// old post-construction SetGCEvery call.
		ev := factory()
		ev.GCEvery = job.GCEvery
		res.RT = vm.New(heap.New(bytes), ev)
		res.Col = ev.Collector
		start := time.Now()
		if rp != nil {
			if err := rp.Run(res.RT); err != nil {
				res.Err = err
				return res
			}
			p.TapeReplayed()
		} else {
			spec.Run(res.RT, job.Size)
		}
		elapsed += time.Since(start)
	}
	res.Elapsed = elapsed / time.Duration(reps)
	return res
}

// Engine is a fixed-size worker pool with the shipped tapes it has
// decoded, which only ExecRelease reads. Every cell runs on a shard
// built for it and released once the cell's Result is consumed, so no
// cell's state outlives it. The zero value is not usable; construct
// with New. An Engine holds no per-run state and is safe for concurrent
// use.
type Engine struct {
	workers  int
	tapes    *seeds
	progress *obs.Progress // nil unless a debug surface is watching
}

// New returns an engine with the given worker count; workers <= 0
// selects GOMAXPROCS (saturate the hardware).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tapes := &seeds{tapes: make(map[tapeKey]*tape.Tape)}
	return &Engine{workers: workers, tapes: tapes}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetProgress attaches p (nil detaches it), which counts the cells
// ExecRelease replays from a shipped tape, and returns e for chaining.
func (e *Engine) SetProgress(p *obs.Progress) *Engine {
	e.progress = p
	return e
}

// ExecRelease runs one job on a shard built for it, hands the result to
// consume, and then releases the shard: its heap unmaps every table
// mapped on it, the collector's side tables and the owner table among
// them, at once (vm.Runtime.Release), not at a Go collection that may
// be long in coming. The Result, its RT and its Col are only valid
// until consume returns: extract what the merge needs, drop the rest.
// A shard that panicked mid-run is released too.
//
// ExecRelease is the cell pipeline's entry (results.Local) and the only
// one that replays: a row that ships a tape (DESIGN.md §12) replays it
// from its first cell. A demographic cell is a pure function of its
// job, so a replayed one is indistinguishable from a driven one. Its
// Elapsed is then not the program's time, which is why every entry that
// reports time — RunEach, Do, Exec — drives.
//
// Nothing is admitted or refused here: the engine's memory scales with
// the cells in flight (the caller's worker count) times a cell's handle
// tables, not with arena capacity, which is virtual (DESIGN.md §13).
func (e *Engine) ExecRelease(job Job, consume func(Result)) {
	e.release(job, e.tapes, consume)
}

// release is ExecRelease with the shipped tapes ts (nil: drive).
func (e *Engine) release(job Job, ts *seeds, consume func(Result)) {
	r := exec(job, ts, e.progress)
	consume(r)
	if r.RT != nil {
		releaseShard(r.RT)
	}
}

// releaseShard releases a shard whose cell, or repeat, has run; exec and
// Engine.release release every shard through it. Only tests replace it.
var releaseShard = (*vm.Runtime).Release

// Do runs fn(i) for every i in [0, n) on the pool and returns when all
// calls have completed. Each fn call must confine its writes to state
// owned by shard i (typically a per-index result slot); distinct
// indices never alias, which is what makes merges order-independent.
func (e *Engine) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// RunEach executes jobs concurrently, invoking consume(i, result) on
// the worker's goroutine as cell i completes, and retains nothing: once
// consume returns, the shard's runtime is released, as ExecRelease
// releases it (so consume must not let the Result's RT or Col escape).
// Peak memory is bounded by the worker count instead of the matrix
// size — the sequential-loop footprint at -workers 1. Like Do's fn,
// consume must confine its writes to state owned by index i. Every cell
// drives its program, so Result.Elapsed is the program's time: RunEach
// runs the timing matrices.
func (e *Engine) RunEach(jobs []Job, consume func(i int, r Result)) {
	e.Do(len(jobs), func(i int) {
		e.release(jobs[i], nil, func(r Result) { consume(i, r) })
	})
}
