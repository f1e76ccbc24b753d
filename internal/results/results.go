// Package results makes the experiment matrix's cells serialisable,
// persistable and streamable. It sits between the execution engine and
// the experiment harness:
//
//   - Outcome is the JSON codec for (engine.Job, engine.Result) pairs:
//     collector specs round-trip via the collector grammar's canonical form
//     (collectors.Spec) and collector statistics travel as typed
//     payloads, so a worker process can compute a cell and a
//     coordinator can merge it without ever sharing a heap.
//   - Store is a content-addressed on-disk cell store keyed by
//     (workload, size, canonical collector spec, seed, ...): re-running
//     a sweep skips completed cells, which is what makes a killed sweep
//     resumable.
//   - Sink renders table rows in index order as cells complete, so a
//     long sweep streams its figures instead of barriering on the last
//     cell.
//   - Scheduler is the one cell pipeline every sweep runs on: key,
//     store, in-flight dedup, fair admission, exec, put, and delivery
//     in index order. Its compute step is the Exec seam, implemented by
//     Local (an in-process engine) and internal/dist's Coordinator
//     (worker processes); the store is optional. A session's index-
//     ordered emission is the whole determinism argument — rendering
//     consumes an index-ordered stream and never sees completion order.
package results

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/obs"
)

// Outcome is the serialisable extract of one engine.Result: everything
// the demographics and counter-based experiments consume, nothing that
// pins a shard (no runtime, no heap). Wall-clock fields ride along for
// timing-oriented consumers but are never part of table rendering, so
// stored and recomputed cells render identically.
type Outcome struct {
	Job      engine.Job    `json:"job"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	GCCycles int           `json:"gc_cycles,omitempty"`
	Instr    uint64        `json:"instr,omitempty"`
	Err      string        `json:"err,omitempty"`
	// Arena is the shard's end-of-run arena occupancy (the slab arena's
	// O(1) Info counters). Wall-clock-independent but address- and
	// allocator-layout-dependent, so it is versioned by the store key
	// (keyVersion v2), never part of table rendering.
	Arena *heap.Info `json:"arena,omitempty"`
	// Compactions counts the times the shard's heap moved its live
	// objects to satisfy an allocation a full collection could not
	// (heap.Stats.Compactions). It is 0, and absent from the JSON, for
	// every cell that never came that close to exhaustion.
	Compactions uint64  `json:"compactions,omitempty"`
	Payload     Payload `json:"payload"`
	// Obs is the shard's cumulative cycle-phase extract: pause/mark/sweep
	// nanoseconds and the pause-time histogram (keyVersion v3). Its
	// object counts (Cycles/Marked/Freed) are deterministic; its
	// nanosecond fields are wall-clock measurements — timing consumers
	// only, never table rendering.
	Obs *obs.CycleStats `json:"obs,omitempty"`
	// Prov records where and under what conditions the cell was computed
	// (host, CPU, load, timestamps) — stamped by the process that ran the
	// cell, carried verbatim through the store and the dist protocol.
	Prov *obs.Provenance `json:"prov,omitempty"`
	// Stored marks an outcome the Scheduler read from its store instead
	// of having it computed. It is delivery metadata for sweep
	// accounting: never serialised, never cell identity.
	Stored bool `json:"-"`
}

// Payload is the typed per-collector extract; Kind names the collector
// family and selects which branch is populated.
type Payload struct {
	Kind string       `json:"kind"`
	CG   *CGPayload   `json:"cg,omitempty"`
	MSA  *msa.Stats   `json:"msa,omitempty"`
	Gen  *gengc.Stats `json:"gen,omitempty"`
}

// CGPayload is the contaminated collector's extract: the end-of-run
// classification and the full counter set — the raw material of every
// demographics figure.
type CGPayload struct {
	Breakdown core.Breakdown `json:"breakdown"`
	Stats     core.Stats     `json:"stats"`
}

// Extract converts an engine.Result into its serialisable Outcome,
// dropping the shard. Call it on the worker's side of any boundary —
// process, channel or store — so the multi-hundred-MiB runtime never
// outlives the cell.
func Extract(r engine.Result) Outcome {
	o := Outcome{Job: r.Job, Elapsed: r.Elapsed}
	prov := obs.Capture(obs.Nanotime())
	o.Prov = &prov
	if r.Err != nil {
		o.Err = r.Err.Error()
		return o
	}
	if r.RT != nil {
		o.GCCycles = r.RT.GCCycles()
		o.Instr = r.RT.Instr()
		info := r.RT.Heap.Arena().Info()
		o.Arena = &info
		o.Compactions = r.RT.Heap.Stats().Compactions
		if st := r.RT.Timeline().Stats(); st.Cycles > 0 {
			o.Obs = &st
		}
	}
	switch col := r.Col.(type) {
	case *core.CG:
		o.Payload = Payload{Kind: "cg", CG: &CGPayload{Breakdown: col.Snapshot(), Stats: col.Stats()}}
	case *msa.System:
		st := col.Engine().Stats()
		o.Payload = Payload{Kind: "msa", MSA: &st}
	case *gengc.System:
		st := col.Stats()
		o.Payload = Payload{Kind: "gen", Gen: &st}
	default:
		o.Payload = Payload{Kind: "none"}
	}
	return o
}

// Encode marshals o to one JSON line (NDJSON-ready: no interior
// newlines), canonicalising the collector spec first so every spelling
// of a configuration serialises — and therefore stores — identically.
func Encode(o Outcome) ([]byte, error) {
	spec, err := collectors.Canonical(o.Job.Collector)
	if err != nil {
		return nil, fmt.Errorf("results: encode: %w", err)
	}
	o.Job.Collector = spec
	b, err := json.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("results: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode unmarshals an Encode line, re-validating the collector spec
// against the collector grammar (a stored cell for a collector this
// build no longer knows is an error, not a silent blob) and checking
// payload/kind consistency.
func Decode(data []byte) (Outcome, error) {
	var o Outcome
	if err := json.Unmarshal(data, &o); err != nil {
		return Outcome{}, fmt.Errorf("results: decode: %w", err)
	}
	spec, err := collectors.Canonical(o.Job.Collector)
	if err != nil {
		return Outcome{}, fmt.Errorf("results: decode: %w", err)
	}
	o.Job.Collector = spec
	if o.Err == "" {
		switch o.Payload.Kind {
		case "cg":
			if o.Payload.CG == nil {
				return Outcome{}, fmt.Errorf("results: decode: kind %q without payload", o.Payload.Kind)
			}
		case "msa":
			if o.Payload.MSA == nil {
				return Outcome{}, fmt.Errorf("results: decode: kind %q without payload", o.Payload.Kind)
			}
		case "gen":
			if o.Payload.Gen == nil {
				return Outcome{}, fmt.Errorf("results: decode: kind %q without payload", o.Payload.Kind)
			}
		case "none":
		default:
			return Outcome{}, fmt.Errorf("results: decode: unknown payload kind %q", o.Payload.Kind)
		}
	}
	return o, nil
}

// Failed reports whether the outcome carries an error instead of a
// payload, and materialises it.
func (o Outcome) Failed() error {
	if o.Err == "" {
		return nil
	}
	return fmt.Errorf("results: %s/%d under %s: %s",
		o.Job.Workload, o.Job.Size, o.Job.Collector, o.Err)
}

// Backend runs a batch of cells and emits one Outcome per job. The
// contract every implementation upholds:
//
//   - emit(i, o) is called exactly once per job, sequentially (never
//     concurrently), and in strictly increasing i — submission order,
//     regardless of which worker, process or store hit produced o.
//   - job-level failures travel inside Outcome.Err; Run's own error
//     means the batch could not complete (every worker process dead)
//     and some cells may not have been emitted.
//
// Index-ordered emission is what makes downstream rendering
// deterministic: a -procs 4 sweep and a -workers 1 sweep present the
// identical event sequence. A Session is the Backend every product
// path uses; Local and dist.Coordinator are Backends as one-session
// runs of a store-less Scheduler over themselves.
type Backend interface {
	Run(jobs []engine.Job, emit func(i int, o Outcome)) error
}

// Local is the in-process Exec: each cell runs on a shard of its own
// and is extracted on the executor's goroutine, so a completed shard is
// released before the executor takes its next cell. Obs, when
// non-nil, shows each executor's utilization as a worker lane.
type Local struct {
	Eng *engine.Engine
	Obs *obs.Progress
}

// Exec implements Exec.
func (l Local) Exec(slot int, job engine.Job) (o Outcome) {
	l.Obs.SetWorkerBusy(slot, 1)
	l.Eng.ExecRelease(job, func(r engine.Result) { o = Extract(r) })
	l.Obs.WorkerDone(slot, 0)
	return o
}

// Run implements Backend with one executor per engine worker.
func (l Local) Run(jobs []engine.Job, emit func(i int, o Outcome)) error {
	return RunOnce(l, l.Obs, l.Eng.Workers(), jobs, emit)
}

// Reorder turns concurrent (index, Outcome) completions into the
// sequential, index-ordered emit calls the Backend contract promises.
// Emission happens under the lock, so emit never runs concurrently.
type Reorder struct {
	mu      sync.Mutex
	emit    func(int, Outcome)
	pending map[int]Outcome
	have    []bool
	next    int
}

// NewReorder returns a reorderer over n slots.
func NewReorder(n int, emit func(int, Outcome)) *Reorder {
	return &Reorder{emit: emit, pending: make(map[int]Outcome), have: make([]bool, n)}
}

// Add records outcome i and flushes the completed prefix. Duplicate
// completions are dropped: first result wins.
func (r *Reorder) Add(i int, o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.have[i] {
		return
	}
	r.have[i] = true
	r.pending[i] = o
	for {
		o, ok := r.pending[r.next]
		if !ok {
			return
		}
		delete(r.pending, r.next)
		i := r.next
		r.next++
		r.emit(i, o)
	}
}

// Finish verifies every slot was emitted.
func (r *Reorder) Finish() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next != len(r.have) {
		return fmt.Errorf("results: %d of %d cells never completed", len(r.have)-r.next, len(r.have))
	}
	return nil
}
