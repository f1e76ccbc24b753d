package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// walkPlan says which cells a workload's traced walk re-runs in this
// process and which of the pipeline's stages its program goes through,
// so the spans are those of the workload being traced.
type walkPlan struct {
	figures bool // the profile's figure grid, rendered
	cells   bool // the Cells matrix (cellsCollectors at tight heaps)
	cgrun   bool // the cgrun matrix (matrixCollectors at tight heaps)
	tape    bool // record each (workload, size) row once, replay after
	pooled  bool // reuse a shard per arena size, as the engine's pool does
	store   bool // encode, put and decode every computed cell
	resume  bool // then walk the grid again from the filled store
}

var walkPlans = map[string]walkPlan{
	"sweep_default":     {figures: true, tape: true, pooled: true},
	"sweep_procs_store": {figures: true, tape: true, pooled: true, store: true, resume: true},
	"collector_matrix":  {cgrun: true},
	"serve_mixed":       {figures: true, cells: true, tape: true, pooled: true, store: true, resume: true},
}

type tapeKey struct {
	workload string
	size     int
}

// walker mirrors engine.exec, results.Local and experiments.Sweep
// through public calls only, one span per layer boundary:
//
//	figure ⊃ cell ⊃ {shard_new ⊃ heap_new | shard_reset,
//	                 drive | record | replay, quiesce, extract,
//	                 encode, store_put, decode | store_get}, render_row
type walker struct {
	plan  walkPlan
	tr    *tracer
	store *results.Store

	tapes  map[tapeKey]*tape.Tape
	pool   map[int]*vm.Runtime
	outs   map[string]results.Outcome // first mirrored outcome per key
	order  []string                   // keys in first-computed order
	traces int
	// extractNS and cells feed results.extract_us: Extract needs a live
	// shard, so it can only be timed where a cell has just run.
	extractNS int64
	cells     int
}

func newWalker(plan walkPlan, tr *tracer, store *results.Store) *walker {
	return &walker{
		plan: plan, tr: tr, store: store,
		tapes: make(map[tapeKey]*tape.Tape),
		pool:  make(map[int]*vm.Runtime),
		outs:  make(map[string]results.Outcome),
	}
}

// spanned runs fn inside a span.
func (w *walker) spanned(name, layer, cell string, trace, parent int, fn func()) {
	id := w.tr.begin(name, layer, cell, trace, parent)
	fn()
	w.tr.end(id)
}

// cell computes one cell the way engine.exec does and returns its
// outcome. A workload that runs out of memory panics; that is an error
// here as it is there.
func (w *walker) cell(job engine.Job, parent int) (o results.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("walk: %s/%d under %s panicked: %v", job.Workload, job.Size, job.Collector, r)
		}
	}()
	key, err := results.Key(job)
	if err != nil {
		return o, err
	}
	spec, err := workload.ByName(job.Workload)
	if err != nil {
		return o, err
	}
	factory, err := collectors.Parse(job.Collector)
	if err != nil {
		return o, err
	}
	arena, err := engine.ArenaBytes(job)
	if err != nil {
		return o, err
	}
	w.traces++
	trace := w.traces
	id := w.tr.begin("cell", "engine", key, trace, parent)
	defer func() { w.tr.end(id) }()

	ev := factory()
	ev.GCEvery = job.GCEvery
	rt := w.pool[arena]
	if rt == nil {
		sid := w.tr.begin("shard_new", "vm", key, trace, id)
		var h *heap.Heap
		w.spanned("heap_new", "heap", key, trace, sid, func() { h = heap.New(arena) })
		rt = vm.New(h, ev)
		w.tr.end(sid)
	} else {
		w.spanned("shard_reset", "vm", key, trace, id, func() { rt.Reset(ev) })
	}

	start := time.Now()
	tk := tapeKey{job.Workload, job.Size}
	switch t := w.tapes[tk]; {
	case t != nil:
		w.spanned("replay", "tape", key, trace, id, func() { err = tape.NewReplayer(t).Run(rt) })
		if err != nil {
			return o, err
		}
	case w.plan.tape:
		w.spanned("record", "tape", key, trace, id, func() {
			rec := tape.NewRecorder(rt, tape.Meta{
				Workload: job.Workload, Size: job.Size,
				Threads: spec.Threads(job.Size), HeapBytes: spec.HeapBytes(job.Size),
			})
			spec.Run(rt, job.Size)
			w.tapes[tk] = rec.Finish()
		})
	default:
		w.spanned("drive", "workload", key, trace, id, func() { spec.Run(rt, job.Size) })
	}
	w.spanned("quiesce", "vm", key, trace, id, func() { rt.Quiesce() })
	res := engine.Result{Job: job, RT: rt, Col: ev.Collector, Elapsed: time.Since(start)}

	t0 := time.Now()
	w.spanned("extract", "results", key, trace, id, func() { o = results.Extract(res) })
	w.extractNS += int64(time.Since(t0))
	w.cells++
	if w.plan.pooled {
		w.pool[arena] = rt
	}
	if w.plan.store {
		var line []byte
		w.spanned("encode", "results", key, trace, id, func() { line, err = results.Encode(o) })
		if err != nil {
			return o, err
		}
		w.spanned("store_put", "results", key, trace, id, func() { err = w.store.Put(o) })
		if err != nil {
			return o, err
		}
		w.spanned("decode", "results", key, trace, id, func() { o, err = results.Decode(line) })
		if err != nil {
			return o, err
		}
	}
	if _, seen := w.outs[key]; !seen {
		w.outs[key] = o
		w.order = append(w.order, key)
	}
	return o, o.Failed()
}

// stored serves one cell from the filled store, as a resumed sweep and
// the warm server do.
func (w *walker) stored(job engine.Job, parent int) (o results.Outcome, err error) {
	key, _ := results.Key(job)
	w.traces++
	id := w.tr.begin("cell", "engine", key, w.traces, parent)
	w.spanned("store_get", "results", key, w.traces, id, func() {
		var ok bool
		if o, ok, err = w.store.Get(job); err == nil && !ok {
			err = fmt.Errorf("walk: %s is not in the store", key)
		}
	})
	w.tr.end(id)
	return o, err
}

// figures renders the figures to out, each cell supplied by get.
func (w *walker) figures(figs []experiments.SweepFig, out io.Writer, get func(engine.Job, int) (results.Outcome, error)) error {
	for fi, f := range figs {
		if fi > 0 {
			fmt.Fprintln(out)
		}
		fid := w.tr.begin("figure", "experiments", "fig "+f.ID, 0, -1)
		sink := results.NewSink(out, f.Title, f.Rows(), f.Headers...)
		row := make([]experiments.Cell, 0, f.CellsPerRow)
		for i, job := range f.Jobs {
			o, err := get(job, fid)
			if err != nil {
				return err
			}
			c, err := experiments.CellFromOutcome(o)
			if err != nil {
				return err
			}
			if row = append(row, c); len(row) == f.CellsPerRow {
				r := i / f.CellsPerRow
				w.spanned("render_row", "experiments", "fig "+f.ID, 0, fid, func() { sink.Row(r, f.Row(r, row)...) })
				row = row[:0]
			}
		}
		if err := sink.Flush(); err != nil {
			return err
		}
		w.tr.end(fid)
	}
	return nil
}

// run walks the plan's cells. The rendered figures must equal the sweep
// golden, cold and resumed alike.
func (w *walker) run(e *env) error {
	if w.plan.figures {
		var out bytes.Buffer
		if err := w.figures(e.figs, &out, w.cell); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), e.gold.sweep) {
			return fmt.Errorf("walk: rendered figures differ from the sweep golden")
		}
	}
	if w.plan.cells {
		for _, job := range e.matrixJobs() {
			o, err := w.cell(job, -1)
			if err != nil {
				return err
			}
			key, _ := results.Key(job)
			if reduceOutcome(o) != e.gold.cells[key] {
				return fmt.Errorf("walk: cell %s differs from the matrix golden", key)
			}
		}
	}
	if w.plan.cgrun {
		for _, mc := range matrixOrder(e.seed, 0) {
			job := engine.Job{Workload: mc.program, Size: e.prof.size, Collector: mc.collector, HeapBytes: engine.TightHeap}
			if _, err := w.cell(job, -1); err != nil {
				return err
			}
		}
	}
	if w.plan.resume {
		var out bytes.Buffer
		if err := w.figures(e.figs, &out, w.stored); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), e.gold.sweep) {
			return fmt.Errorf("walk: resumed figures differ from the sweep golden")
		}
	}
	return nil
}

// normalized encodes an outcome with everything that is wall-clock or
// host-dependent zeroed, so two computations of one cell compare
// byte for byte.
func normalized(o results.Outcome) ([]byte, error) {
	o.Elapsed, o.Prov = 0, nil
	if o.Obs != nil {
		o.Obs = &obs.CycleStats{Cycles: o.Obs.Cycles, Marked: o.Obs.Marked, Freed: o.Obs.Freed}
	}
	return results.Encode(o)
}

// checkAgainstEngine asserts that every mirrored outcome encodes
// byte-equal to engine.Exec's for the same job, so attribution cannot
// drift from the real pipeline.
func (w *walker) checkAgainstEngine(o *ops) {
	for _, key := range w.order {
		mirrored := w.outs[key]
		ref := results.Extract(engine.Exec(mirrored.Job))
		a, err := normalized(mirrored)
		if !o.check("encode "+key, err) {
			continue
		}
		b, err := normalized(ref)
		if err == nil && !bytes.Equal(a, b) {
			err = fmt.Errorf("mirrored outcome differs from engine.Exec's")
		}
		o.check("mirror "+key, err)
	}
}
