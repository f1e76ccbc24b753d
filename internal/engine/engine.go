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
	// RT is the runtime shard of the last repeat. It is quiescent: no
	// engine goroutine touches it once the job completes.
	RT *vm.Runtime
	// Col is the concrete collector of the last repeat (the event
	// table's Collector field); callers type-assert it (e.g. to
	// *core.CG) to extract statistics. Nil under the "none" table.
	Col any
	// Elapsed is the mean wall time per repeat.
	Elapsed time.Duration
	// Err is non-nil if the spec failed to resolve or the run panicked
	// (workloads panic on hard OOM; the engine converts that to an
	// error so one exhausted shard cannot take down the matrix).
	Err error
}

// ArenaBytes resolves the arena budget a job's shard will allocate: an
// explicit positive HeapBytes, the plenty-of-storage demographics
// default, or the workload's own tight budget. It is also the key the
// shard pool matches recycled runtimes by.
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
// shard, with no engine: no shard pool, no tape — it always drives.
// The Result's RT is the caller's to keep. Callers with their own
// per-benchmark control flow (probe runs, budget retry loops) use it; a
// matrix goes through Engine.RunEach.
func Exec(job Job) Result { return exec(job, nil, nil, nil) }

// exec is the shared job body. With a non-nil rt it starts from that
// vacated pooled shard (whose arena size must match the job's budget); it
// never returns shards to the pool itself — the caller does, once the
// Result can no longer escape (see ExecRelease).
//
// With a non-nil ts — ExecRelease's, and no other entry's — a row that
// ships a tape replays its recorded operation stream through the
// runtime instead of re-running driver logic (bit-identical results, no
// driver overhead), every repeat from the first; p counts the replays.
// Every other row drives.
func exec(job Job, rt *vm.Runtime, ts *seeds, p *obs.Progress) (res Result) {
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

	start := time.Now()
	for i := 0; i < reps; i++ {
		// The forced-collection instrumentation is a declarative field
		// of the event table: decorating the descriptor replaces the
		// old post-construction SetGCEvery call.
		ev := factory()
		ev.GCEvery = job.GCEvery
		switch {
		case rt == nil:
			rt = vm.New(heap.New(bytes), ev)
		case i == 0:
			rt.Attach(ev) // a pooled shard was vacated when it was pooled
		default:
			rt.Reset(ev)
		}
		if rp != nil {
			if err := rp.Run(rt); err != nil {
				res.Err = err
				return res
			}
			p.TapeReplayed()
		} else {
			spec.Run(rt, job.Size)
		}
		res.RT, res.Col = rt, ev.Collector
	}
	res.Elapsed = time.Since(start) / time.Duration(reps)
	return res
}

// Engine is a fixed-size worker pool with a shard pool that recycles
// runtimes between cells of equal arena size and the shipped tapes it
// has decoded, which only ExecRelease reads. The zero value is not
// usable; construct with New. An Engine holds no per-run state beyond
// those two and is safe for concurrent use.
type Engine struct {
	workers  int
	pool     *shardPool
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
	return &Engine{workers: workers, pool: newShardPool(workers), tapes: tapes}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetProgress attaches live per-worker utilization reporting (nil
// detaches it) and returns e for chaining. Updates happen only at job
// boundaries inside Do, so an attached Progress costs nothing on any
// per-event or per-cycle path.
func (e *Engine) SetProgress(p *obs.Progress) *Engine {
	e.progress = p
	return e
}

// ExecRelease runs one job, hands the result to consume, and then
// recycles the job's runtime shard into the engine's pool — so a sweep
// of equal-arena cells stops paying per-cell heap and runtime
// construction. The Result, its RT and its Col are only valid until
// consume returns: extract what the merge needs, drop the rest. A shard
// that panicked mid-run is discarded, never recycled.
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
	bytes, err := ArenaBytes(job)
	if err != nil {
		consume(Result{Job: job, Err: err})
		return
	}
	r := exec(job, e.pool.get(bytes), ts, e.progress)
	consume(r)
	if r.Err == nil && r.RT != nil {
		r.RT.Vacate()
		e.pool.put(bytes, r.RT)
	}
}

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
	p := e.progress
	if workers == 1 {
		for i := 0; i < n; i++ {
			p.SetWorkerBusy(0, 1)
			fn(i)
			p.WorkerDone(0, 0)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				p.SetWorkerBusy(w, 1)
				fn(i)
				p.WorkerDone(w, 0)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// RunEach executes jobs concurrently, invoking consume(i, result) on
// the worker's goroutine as cell i completes, and retains nothing: once
// consume returns, the shard's runtime is recycled into the engine's
// pool for the next cell of the same arena size (so consume must not
// let the Result's RT or Col escape). Peak memory is bounded by the
// worker count instead of the matrix size — the sequential-loop
// footprint at -workers 1. Like Do's fn, consume must confine its
// writes to state owned by index i. Every cell drives its program, so
// Result.Elapsed is the program's time: RunEach runs the timing
// matrices.
func (e *Engine) RunEach(jobs []Job, consume func(i int, r Result)) {
	e.Do(len(jobs), func(i int) {
		e.release(jobs[i], nil, func(r Result) { consume(i, r) })
	})
}
