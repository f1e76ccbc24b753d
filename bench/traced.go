package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/results"
	"repro/internal/vm"
)

// runTraced is the traced run of one workload. It walks the workload's
// cells in this process with a span at every layer boundary, checks the
// walk against engine.Exec, repeats the walk with spans disabled for the
// tracing overhead, and then runs the per-layer probes. Timed runs never
// come through here: end-to-end metrics are measured with tracing off.
func runTraced(ctx context.Context, e *env, d workloadDef, r *workloadResult, tracePath string) {
	var o ops
	r.calib.sample()
	plan := walkPlans[d.Name]
	walk := func(on bool) (*walker, time.Duration) {
		dir := filepath.Join(e.scratch, "walk-store")
		defer os.RemoveAll(dir)
		store, err := results.Open(dir)
		if !o.check("open walk store", err) {
			return nil, 0
		}
		w := newWalker(plan, newTracer(d.Name, on), store)
		t0 := time.Now()
		err = w.run(e)
		elapsed := time.Since(t0)
		o.check(fmt.Sprintf("walk (spans %v)", on), err)
		// Drop the shards before anything else is timed.
		w.pool, w.tapes = nil, nil
		debug.FreeOSMemory()
		return w, elapsed
	}
	// The untraced walk goes first so that both walks find the page
	// cache and this process's heap equally warm.
	_, plainWall := walk(false)
	traced, tracedWall := walk(true)
	if traced != nil {
		traced.checkAgainstEngine(&o)
		debug.FreeOSMemory()
		o.check("write trace", writeTrace(tracePath, traced.tr.spans))
		self := selfByName(traced.tr.spans)
		for name, metric := range spanNames {
			r.putValue(metric, self[name])
		}
		r.putValue("span.count", float64(len(traced.tr.spans)))
		scratch := newTracer(d.Name, true)
		r.putValue("span.cost_ns", perOp(100_000, func(int) { scratch.end(scratch.begin("cell", "engine", "", 0, -1)) }))
		if traced.cells > 0 {
			r.putValue("results.extract_us", float64(traced.extractNS)/1e3/float64(traced.cells))
		}
		if plainWall > 0 {
			r.putValue("trace_overhead_pct", 100*(tracedWall-plainWall).Seconds()/plainWall.Seconds())
		}
	}

	p := &prober{e: e, r: r, o: &o, shards: make(map[int]*vm.Runtime)}
	p.probeCollectors()
	p.probeUnionFind()
	p.probeHeap()
	outs := p.probeEngine(ctx)
	p.probeResults(outs)
	p.probeDist()
	p.probeServe(ctx, outs)
	r.calib.sample()
	r.putValue("host.calib_ms", median(r.calib.samples)*1e3)
	r.Reps = 1
	r.addOps(&o)
}
