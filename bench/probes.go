package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/serve"
	"repro/internal/tape"
	"repro/internal/unionfind"
	"repro/internal/vm"
	"repro/internal/workload"
)

// prober runs the differential probes of the traced run. Each probe
// times public functions of one module from outside, usually twice with
// only that module's share differing, and reports the difference.
type prober struct {
	e *env
	r *workloadResult
	o *ops

	shards map[int]*vm.Runtime // one reusable shard per arena size
	resets []float64           // Runtime.Reset durations, us
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timed runs one program on a shard of the given arena under the named
// collector and returns how long the run took. The shard is reset, not
// rebuilt, between runs of one arena size.
func (p *prober) timed(arena int, collector string, run func(rt *vm.Runtime) error) (d time.Duration, ev vm.Events, rt *vm.Runtime, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe under %s panicked: %v", collector, r)
		}
	}()
	ev, err = collectors.New(collector)
	if err != nil {
		return 0, ev, nil, err
	}
	if rt = p.shards[arena]; rt == nil {
		rt = vm.New(heap.New(arena), ev)
		p.shards[arena] = rt
	} else {
		t0 := time.Now()
		rt.Reset(ev)
		p.resets = append(p.resets, us(time.Since(t0)))
	}
	t0 := time.Now()
	err = run(rt)
	rt.Quiesce()
	return time.Since(t0), ev, rt, err
}

// probeCollectors covers workload, vm, core, tape, msa, gengc and the
// arena's occupancy: every matrix program at the profile's size, driven
// and replayed under each collector in a plenty-of-storage arena, then
// replayed at its own tight heap.
func (p *prober) probeCollectors() {
	size := p.e.prof.size
	var driverSelf, replayNone, bookkeeping, recycleDelta, premium, saving, barrier time.Duration
	var nOps, tapeBytes, loses int
	var cg core.Stats
	var popped uint64
	var msaStats msa.Stats
	var msaTimeline, genTimeline obs.CycleStats
	var largest *tape.Tape
	var heapBytes, allocBytes int
	fail := func(what string, err error) bool { return !p.o.check(what, err) }

	for _, spec := range workload.All() {
		drive := func(rt *vm.Runtime) error { spec.Run(rt, size); return nil }
		big := engine.DemographicsArena

		dDriveNone, _, _, err := p.timed(big, "none", drive)
		if fail("drive "+spec.Name+" under none", err) {
			continue
		}
		dDriveCG, _, _, err := p.timed(big, "cg", drive)
		if fail("drive "+spec.Name+" under cg", err) {
			continue
		}
		var t *tape.Tape
		dRecordCG, _, _, err := p.timed(big, "cg", func(rt *vm.Runtime) error {
			rec := tape.NewRecorder(rt, tape.Meta{Workload: spec.Name, Size: size,
				Threads: spec.Threads(size), HeapBytes: spec.HeapBytes(size)})
			spec.Run(rt, size)
			t = rec.Finish()
			return nil
		})
		if fail("record "+spec.Name+" under cg", err) {
			continue
		}
		replay := func(rt *vm.Runtime) error { return tape.NewReplayer(t).Run(rt) }
		// The first replay of a tape also decodes its operand stream;
		// that one-off is the tape layer's, so it runs untimed here.
		if _, _, _, err := p.timed(big, "none", replay); fail("replay "+spec.Name, err) {
			continue
		}
		dReplayNone, _, _, err := p.timed(big, "none", replay)
		if fail("replay "+spec.Name+" under none", err) {
			continue
		}
		dReplayCG, ev, rt, err := p.timed(big, "cg", replay)
		if fail("replay "+spec.Name+" under cg", err) {
			continue
		}
		st := ev.Collector.(*core.CG).Stats()
		cg.Unions += st.Unions
		cg.OptSkips += st.OptSkips
		popped += st.Popped
		info := rt.Heap.Arena().Info()
		heapBytes += info.HeapBytes
		allocBytes += info.AllocBytes
		dReplayGen, _, _, err := p.timed(big, "gen", replay)
		if fail("replay "+spec.Name+" under gen", err) {
			continue
		}

		driverSelf += dDriveNone - dReplayNone
		replayNone += dReplayNone
		bookkeeping += dReplayCG - dReplayNone
		premium += dRecordCG - dDriveCG
		saving += dDriveCG - dReplayCG
		barrier += dReplayGen - dReplayNone
		if dReplayCG > dDriveCG {
			loses++
		}
		nOps += t.Ops()
		tapeBytes += t.MemBytes()
		if largest == nil || t.Ops() > largest.Ops() {
			largest = t
		}

		// Tight heap: the collectors have to work. jess is skipped for
		// the reason it is missing from the matrix.
		if spec.Name == "jess" {
			continue
		}
		tight := spec.HeapBytes(size)
		dCG, _, _, err := p.timed(tight, "cg", replay)
		if fail("tight replay "+spec.Name+" under cg", err) {
			continue
		}
		dRecycle, _, _, err := p.timed(tight, "cg+recycle", replay)
		if fail("tight replay "+spec.Name+" under cg+recycle", err) {
			continue
		}
		recycleDelta += dRecycle - dCG
		_, ev, rt, err = p.timed(tight, "msa", replay)
		if fail("tight replay "+spec.Name+" under msa", err) {
			continue
		}
		msaStats.Merge(ev.Collector.(*msa.System).Engine().Stats())
		tl := rt.Timeline().Stats()
		msaTimeline.Merge(&tl)
		_, _, rt, err = p.timed(tight, "gen", replay)
		if fail("tight replay "+spec.Name+" under gen", err) {
			continue
		}
		tl = rt.Timeline().Stats()
		genTimeline.Merge(&tl)
	}

	r := p.r
	r.putValue("workload.driver_self_ms", ms(driverSelf))
	r.putValue("workload.ops", float64(nOps))
	r.putValue("vm.replay_none_ms", ms(replayNone))
	if nOps > 0 {
		r.putValue("vm.ns_per_op", float64(replayNone)/float64(nOps))
	}
	r.put("vm.shard_reset_us", summarize(p.resets))
	r.putValue("core.bookkeeping_ms", ms(bookkeeping))
	r.putValue("core.recycle_delta_ms", ms(recycleDelta))
	r.putValue("core.unions", float64(cg.Unions))
	r.putValue("core.opt_skips", float64(cg.OptSkips))
	r.putValue("core.popped", float64(popped))
	r.putValue("tape.record_premium_ms", ms(premium))
	r.putValue("tape.replay_saving_ms", ms(saving))
	r.putValue("tape.replay_loses", float64(loses))
	r.putValue("tape.bytes", float64(tapeBytes))
	r.putValue("gengc.barrier_delta_ms", ms(barrier))
	r.putValue("gengc.cycles", float64(genTimeline.Cycles))
	r.putValue("gengc.cycle_ms", float64(genTimeline.PauseNS)/1e6)
	r.putValue("msa.cycles", float64(msaTimeline.Cycles))
	r.putValue("msa.cycle_ms", float64(msaTimeline.PauseNS)/1e6)
	r.putValue("msa.mark_ms", float64(msaTimeline.MarkNS)/1e6)
	r.putValue("msa.sweep_ms", float64(msaTimeline.SweepNS)/1e6)
	r.putValue("msa.pause_p95_us", us(msaTimeline.Pause.Quantile(0.95)))
	r.putValue("msa.pause_max_us", float64(msaTimeline.MaxPauseNS)/1e3)
	r.putValue("msa.marked", float64(msaStats.Marked))
	r.putValue("msa.freed", float64(msaStats.Freed))
	r.putValue("msa.edge_visits", float64(msaStats.EdgeVisits))
	r.putValue("msa.max_workers", float64(msaTimeline.MaxWorkers))
	if allocBytes > 0 {
		r.putValue("heap.overhead_pct", 100*float64(heapBytes-allocBytes)/float64(allocBytes))
	}
	if largest != nil {
		t0 := time.Now()
		enc := tape.Encode(largest)
		r.putValue("tape.encode_ms", ms(time.Since(t0)))
		t0 = time.Now()
		_, err := tape.Decode(enc)
		r.putValue("tape.decode_ms", ms(time.Since(t0)))
		p.o.check("tape decode", err)
	}
	p.shards = make(map[int]*vm.Runtime)
	debug.FreeOSMemory()
}

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probeUnionFind runs one seeded union/find script over a million
// elements on both forest representations.
func (p *prober) probeUnionFind() {
	const n = 1 << 20
	rng := rngFor(p.e.seed, "unionfind", 0)
	xs, ys := make([]int32, n), make([]int32, n)
	for i := range xs {
		xs[i], ys[i] = int32(rng.Intn(n)), int32(rng.Intn(n))
	}
	for name, f := range map[string]unionfind.Forest{"dsu": unionfind.NewDSU(n), "packed": unionfind.NewPacked(n)} {
		p.r.putValue("unionfind."+name+"_union_ns", perOp(n, func(i int) { f.Union(int(xs[i]), int(ys[i])) }))
		p.r.putValue("unionfind."+name+"_find_ns", perOp(n, func(i int) { f.Find(int(ys[i])) }))
	}
}

// probeHeap times the arena's alloc and free paths on a seeded
// mixed-size churn, the cost of a new and a reset heap, and an
// uncontended reserve acquire/release pair.
func (p *prober) probeHeap() {
	const n = 1 << 18
	rng := rngFor(p.e.seed, "heap", 0)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 16 + 8*rng.Intn(60) // 16..488 bytes: the small-object ladder
	}
	order := rng.Perm(n)
	a := heap.NewArena(256 << 20)
	addrs := make([]int, n)
	var err error
	allocNS := perOp(n, func(i int) {
		var e error
		if addrs[i], e = a.Alloc(sizes[i]); e != nil {
			err = e
		}
	})
	p.o.check("arena churn", err)
	freeNS := perOp(n/2, func(i int) { a.Free(addrs[order[i]], sizes[order[i]]) })
	// Allocating into the holes the frees left is the steady state of a
	// collected heap.
	reallocNS := perOp(n/2, func(i int) { addrs[order[i]], _ = a.Alloc(sizes[order[i]]) })
	p.r.putValue("heap.alloc_ns", (allocNS*2+reallocNS)/3)
	p.r.putValue("heap.free_ns", freeNS)

	var h *heap.Heap
	p.r.putValue("heap.new_us", perOp(8, func(int) { h = heap.New(engine.DemographicsArena) })/1e3)
	c := h.DefineClass(heap.Class{Name: "probe", Refs: 2, Data: 16})
	var resets []float64
	for round := 0; round < 5; round++ {
		for i := 0; i < n; i++ {
			if _, e := h.Alloc(c, 0); e != nil {
				err = e
			}
		}
		t0 := time.Now()
		h.Reset()
		resets = append(resets, us(time.Since(t0)))
		c = h.DefineClass(heap.Class{Name: "probe", Refs: 2, Data: 16})
	}
	p.o.check("heap churn", err)
	p.r.put("heap.reset_us", summarize(resets))
	p.r.putValue("vm.shard_new_us", perOp(8, func(int) { vm.New(heap.New(engine.DemographicsArena), vm.None()) })/1e3)

	res := heap.NewReserve(1 << 30)
	p.r.putValue("heap.reserve_pair_ns", perOp(1<<20, func(int) { res.Acquire(1 << 20); res.Release(1 << 20) }))
	debug.FreeOSMemory()
}

// capture is a results.Backend that remembers every outcome it passes on.
type capture struct {
	next results.Backend
	outs map[string]results.Outcome
}

func (c *capture) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	return c.next.Run(jobs, func(i int, o results.Outcome) {
		if key, err := results.Key(o.Job); err == nil {
			c.outs[key] = o
		}
		emit(i, o)
	})
}

// replayed is a results.Backend that serves prerecorded outcomes from
// memory, so experiments.Sweep can be timed on its own.
type replayed map[string]results.Outcome

func (m replayed) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	for i, job := range jobs {
		key, err := results.Key(job)
		if err != nil {
			return err
		}
		o, ok := m[key]
		if !ok {
			return fmt.Errorf("no recorded outcome for %s", key)
		}
		emit(i, o)
	}
	return nil
}

// sweepOn runs the profile's figures on backend b in this process,
// checks the bytes against the golden, and returns the wall time.
func (p *prober) sweepOn(what string, b results.Backend) time.Duration {
	var out bytes.Buffer
	t0 := time.Now()
	err := experiments.Sweep(b, p.e.figs, &out)
	d := time.Since(t0)
	if err == nil && !bytes.Equal(out.Bytes(), p.e.gold.sweep) {
		err = fmt.Errorf("output differs from the sweep golden")
	}
	p.o.check(what, err)
	return d
}

// probeEngine runs the grid on the real engine in this process with
// one worker, which makes the tape counters exact, and times cgsweep at
// one worker and at W for the scaling efficiency T(1)/(W*T(W)) — in the
// binary, because this process's heap is not a fresh process's. 256
// size-1 cells give the pool's per-cell overhead. It returns the grid's
// outcomes by key for the probes downstream.
func (p *prober) probeEngine(ctx context.Context) map[string]results.Outcome {
	e, r := p.e, p.r
	prog := &obs.Progress{}
	cp := &capture{next: results.Local{Eng: engine.New(1).SetProgress(prog), Obs: prog}, outs: make(map[string]results.Outcome)}
	p.sweepOn("in-process sweep, 1 worker", cp)
	snap := prog.Snapshot()
	r.putValue("engine.tape_recorded", float64(snap.TapesRecorded))
	r.putValue("engine.tape_replayed", float64(snap.TapeReplays))
	if snap.CellsComputed > 0 {
		r.putValue("engine.useful_cell_ratio", float64(len(e.keys))/float64(snap.CellsComputed))
	}
	debug.FreeOSMemory()

	one := e.run(ctx, childTimeout, "cgsweep", e.sweepArgs("-workers", "1")...)
	all := e.run(ctx, childTimeout, "cgsweep", e.sweepArgs()...)
	if e.checkSweep(p.o, "cgsweep -workers 1", one) && e.checkSweep(p.o, "cgsweep", all) {
		r.putValue("engine.sweep_wall_1w_s", one.wallS())
		r.putValue("engine.scaling_eff", one.wallS()/(float64(e.w)*all.wallS()))
	}

	jobs := smallJobs(256)
	var inCells time.Duration
	t0 := time.Now()
	engine.New(1).RunEach(jobs, func(i int, res engine.Result) { inCells += res.Elapsed })
	r.putValue("engine.cell_overhead_us", us(time.Since(t0)-inCells)/float64(len(jobs)))
	debug.FreeOSMemory()
	return cp.outs
}

// smallJobs are n size-1 cg cells, cycling through the programs: cells
// so short that what is left of a batch's wall is the layer around them.
func smallJobs(n int) []engine.Job {
	names := workload.Names()
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i] = engine.Job{Workload: names[i%len(names)], Size: 1, Collector: "cg"}
	}
	return jobs
}

// probeResults times the outcome codec, the key function and the store
// per outcome, experiments.Sweep over outcomes served from memory, and
// the provenance capture every Extract pays.
func (p *prober) probeResults(outs map[string]results.Outcome) {
	e, r := p.e, p.r
	if len(outs) != len(e.keys) {
		p.o.check("grid outcomes", fmt.Errorf("have %d outcomes for %d keys", len(outs), len(e.keys)))
		return
	}
	const rounds = 20
	list := make([]results.Outcome, 0, len(outs))
	for _, k := range e.keys {
		list = append(list, outs[k])
	}
	n := rounds * len(list)
	at := func(i int) results.Outcome { return list[i%len(list)] }
	lines := make([][]byte, len(list))
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	r.putValue("results.encode_us", perOp(n, func(i int) {
		b, e := results.Encode(at(i))
		note(e)
		lines[i%len(list)] = b
	})/1e3)
	total := 0
	for _, l := range lines {
		total += len(l)
	}
	r.putValue("results.outcome_bytes", float64(total)/float64(len(lines)))
	r.putValue("results.decode_us", perOp(n, func(i int) { _, e := results.Decode(lines[i%len(list)]); note(e) })/1e3)
	r.putValue("results.key_us", perOp(n, func(i int) { _, e := results.Key(at(i).Job); note(e) })/1e3)
	dir := filepath.Join(e.scratch, "probe-store")
	defer os.RemoveAll(dir)
	store, e2 := results.Open(dir)
	note(e2)
	if store != nil {
		r.putValue("results.store_put_us", perOp(n, func(i int) { note(store.Put(at(i))) })/1e3)
		r.putValue("results.store_get_us", perOp(n, func(i int) {
			_, ok, e := store.Get(at(i).Job)
			if e == nil && !ok {
				e = fmt.Errorf("stored cell missing")
			}
			note(e)
		})/1e3)
	}
	p.o.check("results codec and store", err)

	var renders []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		note(experiments.Sweep(replayed(outs), e.figs, io.Discard))
		renders = append(renders, ms(time.Since(t0)))
	}
	r.put("experiments.render_ms", summarize(renders))
	r.putValue("obs.capture_ns", perOp(2000, func(int) { obs.Capture(obs.Nanotime()) }))
	r.putValue("experiments.cells", float64(len(e.jobs)))
	r.putValue("experiments.unique_keys", float64(len(e.keys)))
}

// probeDist times a worker process from spawn to its first outcome,
// and the protocol's per-cell cost: 256 small cells through an
// in-process worker minus the same cells on a local engine.
func (p *prober) probeDist() {
	e, r := p.e, p.r
	first := smallJobs(1)
	spawn := &dist.Coordinator{Procs: 1, Spawn: dist.Command(
		[]string{filepath.Join(e.bin, "cgworker"), "-workers", "1"}, io.Discard)}
	var failed error
	t0 := time.Now()
	err := spawn.Run(first, func(_ int, o results.Outcome) { failed = o.Failed() })
	r.putValue("dist.spawn_ms", ms(time.Since(t0)))
	if err == nil {
		err = failed
	}
	p.o.check("dist spawn", err)

	jobs := smallJobs(256)
	run := func(b results.Backend) time.Duration {
		t0 := time.Now()
		err := b.Run(jobs, func(_ int, o results.Outcome) {
			if e := o.Failed(); e != nil {
				failed = e
			}
		})
		if err == nil {
			err = failed
		}
		p.o.check("dist roundtrip", err)
		return time.Since(t0)
	}
	local := run(results.Local{Eng: engine.New(1)})
	piped := run(&dist.Coordinator{Procs: 1, Spawn: dist.InProcess(1)})
	r.putValue("dist.roundtrip_us", us(piped-local)/float64(len(jobs)))
}

// probeServe measures the scheduler in this process over a warm store
// and one live server lifetime for the client-side figures.
func (p *prober) probeServe(ctx context.Context, outs map[string]results.Outcome) {
	e, r := p.e, p.r
	dir := filepath.Join(e.scratch, "probe-serve-store")
	defer os.RemoveAll(dir)
	store, err := results.Open(dir)
	if p.o.check("open store", err) {
		for _, o := range outs {
			if err := store.Put(o); err != nil {
				p.o.check("fill store", err)
			}
		}
	}
	var sessionMS []float64
	if store != nil {
		sched := serve.NewScheduler(engine.New(1), store, nil, 0)
		for i := 0; i < 20; i++ {
			sess, err := sched.OpenSession("probe")
			if !p.o.check("open session", err) {
				break
			}
			sessionMS = append(sessionMS, ms(p.sweepOn("session sweep over a warm store", sess)))
			sess.Close()
		}
		sched.Drain()
		sched.Wait()
	}
	inProcess := median(sessionMS)
	r.putValue("serve.sched_us_per_cell", inProcess*1e3/float64(len(e.jobs)))

	lt, ok := e.serveOnce(ctx, p.o, 0)
	if !ok {
		return
	}
	var cells, deduped, stored int64
	for _, d := range lt.done {
		cells, deduped, stored = cells+d.Cells, deduped+d.Deduped, stored+d.Stored
	}
	r.putValue("serve.dedup_ratio", float64(deduped)/float64(cells))
	r.putValue("serve.stored_ratio", float64(stored)/float64(cells))
	r.putValue("serve.sweep_tail_ms", percentile(lt.sweepMS, tailPercentile(len(lt.sweepMS))))
	r.putValue("serve.cell_get_tail_us", percentile(lt.getUS, tailPercentile(len(lt.getUS))))
	r.putValue("serve.cell_304_us", median(lt.get304US))
	r.putValue("serve.http_overhead_ms", median(lt.sweepMS)-inProcess)
}
