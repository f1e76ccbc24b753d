package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds any single batch process under test.
const childTimeout = 60 * time.Second

// workloadDef is one named workload: the inputs the benchmark runs and
// what counts as one operation of it.
type workloadDef struct {
	Name string
	// Op says what wall_s, cpu_s and peak_rss_mb measure here.
	Op  string
	Why string
	Run func(ctx context.Context, e *env, r *workloadResult)
}

// workloadDefs are the benchmark's workloads, in the order a full run
// executes them. The Why lines are BENCHMARK.json's.
var workloadDefs = []workloadDef{
	{"sweep_default", "one cgsweep process with default flags",
		"what a reproducer types: all 12 figures in-process, tape cache on, no store; driver, vm, core and tape, zero collection cycles", runSweepDefault},
	{"sweep_procs_store", "one cgsweep -procs P -workers 1 -store run into an empty store, children included (then 4 timed reruns over the filled store)",
		"same grid through worker processes: spawn, dist NDJSON over pipes, results encode and store put/get; the reruns compute nothing, so collectors must not move them", runProcsStore},
	{"collector_matrix", "one cgrun per (program, collector): the sum over the matrix of each cell's median",
		"Fig 4.10's question: 7 programs at size 100 under cg, cg+recycle, msa, gen at tight heaps; hundreds of cycles, heap free and sweep, no tape", runMatrix},
	{"serve_mixed", "the cold phases of one fresh cgserve: all clients' overlapping figure sweeps, then the Cells matrix (then a timed warm loop and the drain)",
		"the long-running form: scheduler lanes, in-flight dedup, store, HTTP; the one place tape replay outnumbers record; the warm loop does no collector work", runServeMixed},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// repeat runs rep(i) once as a discarded warm-up (i = 0) and then until
// the measuring time is used up, at least minReps times, counting the
// measured repetitions in r.Reps. Between repetitions it samples the
// host-speed calibration loop.
func (e *env) repeat(ctx context.Context, r *workloadResult, minReps int, rep func(i int, measured bool)) {
	rep(0, false)
	r.calib.sample()
	start := time.Now()
	for ctx.Err() == nil && (r.Reps < minReps || time.Since(start) < e.seconds) {
		r.Reps++
		rep(r.Reps, true)
		r.calib.maybe()
	}
}

// usage accumulates the generic per-operation costs of a workload whose
// operation is one process.
type usage struct{ wall, cpu, rss []float64 }

func (u *usage) add(c child) {
	u.wall = append(u.wall, c.wallS())
	u.cpu = append(u.cpu, c.cpuS())
	u.rss = append(u.rss, c.rssMB())
}

func (u *usage) report(r *workloadResult) {
	reportTimes(r, summarize(u.wall), summarize(u.cpu))
	r.put("peak_rss_mb", summarize(u.rss))
}

// reportTimes reports an operation's wall and CPU time at the reference
// host speed, with the unscaled wall and the calibration beside them.
func reportTimes(r *workloadResult, wall, cpu summary) {
	r.putTime("wall_s", wall)
	r.putTime("cpu_s", cpu)
	r.put("wall_raw_s", wall)
	r.put("calib_s", summarize(r.calib.samples))
}

// sweepArgs are the figure flags of the profile (none for the full one:
// the default sweep is every figure).
func (e *env) sweepArgs(extra ...string) []string {
	var args []string
	if len(e.prof.figs) > 0 {
		args = append(args, "-figs", strings.Join(e.prof.figs, ","))
	}
	return append(args, extra...)
}

// checkSweep counts one cgsweep run: it must exit 0 in time and print
// the golden bytes.
func (e *env) checkSweep(o *ops, what string, c child) bool {
	if !o.check(what, c.err) {
		return false
	}
	if !bytes.Equal(c.stdout, e.gold.sweep) {
		o.fail("%s: stdout differs from the sweep golden", what)
		return false
	}
	return true
}

func runSweepDefault(ctx context.Context, e *env, r *workloadResult) {
	var o ops
	var u usage
	e.repeat(ctx, r, 3, func(i int, measured bool) {
		c := e.run(ctx, childTimeout, "cgsweep", e.sweepArgs()...)
		if !measured {
			return
		}
		if e.checkSweep(&o, "cgsweep", c) {
			u.add(c)
		}
		r.addChild(c)
	})
	u.report(r)
	r.putTime("sweep_wall_s", summarize(u.wall))
	r.put("sweep_peak_rss_mb", summarize(u.rss))
	r.addOps(&o)
}

func (e *env) procsArgs(store string) []string {
	return e.sweepArgs("-procs", strconv.Itoa(e.procs()), "-workers", "1", "-store", store)
}

// storeSummary is cgsweep's closing stderr line for a -store run.
func storeSummary(stored, computed int) string {
	return fmt.Sprintf("cgsweep: %d cells from store, %d computed", stored, computed)
}

// resumesPerRep is how many times a repetition reruns the sweep over
// the store its cold run filled.
const resumesPerRep = 4

func runProcsStore(ctx context.Context, e *env, r *workloadResult) {
	var o ops
	var u usage
	var resumeMS []float64
	cold := storeSummary(len(e.jobs)-len(e.keys), len(e.keys))
	resumed := storeSummary(len(e.jobs), 0)
	e.repeat(ctx, r, 3, func(i int, measured bool) {
		store := filepath.Join(e.scratch, fmt.Sprintf("store-%d", i))
		defer os.RemoveAll(store)
		for n := 0; n <= resumesPerRep; n++ {
			what, want := "cgsweep -procs (cold)", cold
			if n > 0 {
				what, want = "cgsweep -procs (resume)", resumed
			}
			c := e.run(ctx, childTimeout, "cgsweep", e.procsArgs(store)...)
			if !measured {
				continue
			}
			r.addChild(c)
			if !e.checkSweep(&o, what, c) {
				continue
			}
			if got := lastLine(c.stderr); got != want {
				o.fail("%s reported %q, want %q", what, got, want)
			} else if n == 0 {
				u.add(c)
			} else {
				resumeMS = append(resumeMS, c.WallMS)
			}
		}
	})
	u.report(r)
	r.putTime("procs_cold_wall_s", summarize(u.wall))
	r.putTime("procs_resume_wall_ms", summarize(resumeMS))
	r.addOps(&o)
}

func runMatrix(ctx context.Context, e *env, r *workloadResult) {
	var o ops
	cells := make(map[string]*usage)
	var passSpeedups []float64
	e.repeat(ctx, r, 3, func(pass int, measured bool) {
		passWall := make(map[string]float64)
		for _, mc := range matrixOrder(e.seed, pass) {
			c := e.run(ctx, childTimeout, "cgrun", cgrunArgs(mc.program, e.prof.size, mc.collector)...)
			if !measured {
				continue
			}
			c.Name = "cgrun " + mc.id()
			r.addChild(c)
			if !o.check(c.Name, c.err) {
				continue
			}
			if string(c.stdout) != e.gold.cgrun[mc.id()] {
				o.fail("%s: counters differ from the golden", c.Name)
				continue
			}
			u := cells[mc.id()]
			if u == nil {
				u = &usage{}
				cells[mc.id()] = u
			}
			u.add(c)
			passWall[mc.id()] = c.wallS()
			r.calib.maybe()
		}
		if measured {
			passSpeedups = append(passSpeedups, speedup(passWall))
		}
	})
	// A collector's run time is the sum over the programs of each
	// cell's median; quartiles are summed the same way (a band, not a
	// distribution).
	sum := func(collectors []string, pick func(*usage) []float64) summary {
		var s summary
		for _, col := range collectors {
			for _, p := range matrixPrograms {
				if u := cells[p+"/"+col]; u != nil {
					c := summarize(pick(u))
					s.Median, s.Q1, s.Q3, s.N = s.Median+c.Median, s.Q1+c.Q1, s.Q3+c.Q3, s.N+c.N
				}
			}
		}
		return s
	}
	wall := func(u *usage) []float64 { return u.wall }
	reportTimes(r, sum(matrixCollectors, wall), sum(matrixCollectors, func(u *usage) []float64 { return u.cpu }))
	var rss summary
	for _, u := range cells {
		if c := summarize(u.rss); c.Median > rss.Median {
			rss = c
		}
	}
	r.put("peak_rss_mb", rss)
	for _, col := range matrixCollectors {
		r.putTime("run_s."+strings.ReplaceAll(col, "+", "_"), sum([]string{col}, wall))
	}
	// Fig 4.10's column: how many times faster than the base system,
	// from the cells' medians; the quartiles are those of the passes'
	// own speed-ups.
	medians := make(map[string]float64, len(cells))
	for id, u := range cells {
		medians[id] = median(u.wall)
	}
	speed := summarize(passSpeedups)
	speed.Median = speedup(medians)
	r.put("cg_vs_msa_speedup", speed)
	r.addOps(&o)
}

// speedup is the geometric mean over the matrix programs of msa wall
// over cg wall, given walls by cell id; programs missing either are
// left out.
func speedup(walls map[string]float64) float64 {
	var rs []float64
	for _, p := range matrixPrograms {
		cg, ok1 := walls[p+"/cg"]
		msa, ok2 := walls[p+"/msa"]
		if ok1 && ok2 {
			rs = append(rs, msa/cg)
		}
	}
	return geomean(rs)
}
