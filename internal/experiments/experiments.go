// Package experiments regenerates every table and figure of the thesis's
// evaluation (Chapter 4 and Appendix A). Figures is the one list of them,
// in the thesis's order. SweepProgress is the one renderer of the
// demographic figures: it streams them over any results.Backend,
// running each distinct cell once however many figures read it. Render
// renders any list of figures on the caller's sharded execution engine:
// the demographic ones through SweepProgress, so cgbench, cgsweep and
// cgserve print a figure's same bytes, and each distinct timing matrix
// once.
//
// Determinism: every demographics cell runs on an isolated vm.Runtime
// shard with a deterministic workload RNG, the pipeline delivers cells
// in submission order, and columns are as wide as their headers, so the
// rendered tables are byte-identical for any worker count, process
// count or store state (see TestEngineDeterminism). Only the wall-clock
// figures (4.7, 4.8, 4.10, 4.12, A.5–A.7) vary run to run, as they did
// on the thesis's hardware.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

// Cell is the small extract a demographics consumer needs from one
// shard: the end-of-run classification, the CG counters, the forced
// traditional-collection count (Fig 4.11), the shard's arena occupancy
// (cgstats -arena-stats) and its cycle-phase extract (cgstats -pauses).
type Cell struct {
	B    core.Breakdown
	St   core.Stats
	GC   int
	Info heap.Info
	Obs  obs.CycleStats
}

// Figure is one id of the thesis's evaluation. It is one of three kinds:
// a demographic figure (its cells and rows are a SweepFig), a wall-clock
// figure (it reads timing matrices), or a worked example or Fig 4.13
// (a body with its own control flow).
type Figure struct {
	ID string

	demo     *SweepFig
	reads    []matrix
	tabulate func(got []series) *table.Table // renders a wall-clock figure from its reads, in order
	body     func(eng *engine.Engine) (string, error)
}

// Timing reports whether the figure prints wall-clock time: its bytes
// vary run to run (cgbench -skip-timing leaves it out).
func (f Figure) Timing() bool { return len(f.reads) > 0 }

// Large reports whether the figure has size-100 cells (cgbench
// -skip-large leaves it out).
func (f Figure) Large() bool {
	if f.demo != nil {
		return slices.ContainsFunc(f.demo.Jobs, func(j engine.Job) bool { return j.Size == 100 })
	}
	return slices.ContainsFunc(f.reads, func(m matrix) bool { return m.size == 100 })
}

// figures is the one list of every id cgbench prints, in thesis order.
func figures() []Figure {
	specs := workload.All()
	demo := func(f SweepFig) Figure { return Figure{ID: f.ID, demo: &f} }
	example := func(text func() string) func(*engine.Engine) (string, error) {
		return func(*engine.Engine) (string, error) { return text(), nil }
	}
	return []Figure{
		{ID: "2.1", body: example(Example21)},
		{ID: "3.1", body: example(Example31)},
		demo(fig41Data(specs)),
		demo(fig42_44Data(specs, 1)),
		demo(fig42_44Data(specs, 10)),
		demo(fig42_44Data(specs, 100)),
		demo(fig45Data(specs)),
		demo(fig46Data(specs)),
		fig47_48(specs, 1),
		fig47_48(specs, 10),
		demo(fig49Data(specs)),
		fig410(specs),
		demo(fig411Data(specs)),
		fig412(specs),
		{ID: "4.13", body: func(eng *engine.Engine) (string, error) { return fig413(eng, specs) }},
		demo(figA1Data(specs)),
		demo(figA2_4Data(specs, 1)),
		demo(figA2_4Data(specs, 10)),
		demo(figA2_4Data(specs, 100)),
		figA5_7(specs, 1),
		figA5_7(specs, 10),
		figA5_7(specs, 100),
	}
}

// Figures returns every figure for no arguments, else the named subset
// in the order named.
func Figures(ids ...string) ([]Figure, error) {
	return pick(figures(), ids, func(f Figure) string { return f.ID }, "figure")
}

// pick returns all for no ids, else the entries of all named by ids, in
// the order named.
func pick[T any](all []T, ids []string, id func(T) string, what string) ([]T, error) {
	if len(ids) == 0 {
		return all, nil
	}
	out := make([]T, 0, len(ids))
	for _, want := range ids {
		i := slices.IndexFunc(all, func(f T) bool { return id(f) == want })
		if i < 0 {
			have := make([]string, len(all))
			for j, f := range all {
				have[j] = id(f)
			}
			return nil, fmt.Errorf("experiments: no %s %q (have %s)", what, want, strings.Join(have, ", "))
		}
		out = append(out, all[i])
	}
	return out, nil
}

// Render renders figs on eng and returns, per figure, its text or the
// error that failed it, "sweep <id>: ...". The demographic figures run
// first, as one SweepProgress batch through results.Local, so each
// prints exactly the bytes cgsweep prints for it; then each distinct
// timing matrix runs, in a batch of its own, so no timing cell shares
// the host with a demographic one or with another matrix's; then the
// timing figures and the bodies (the worked examples and Fig 4.13)
// render, in order.
//
// A failed matrix fails only the timing figures that read it. A failed
// demographic cell follows the sweep's rule: the first demographic
// figure to read it, and every demographic figure after that one, fail
// with the sweep's error, which names that first reader. Timing figures
// and bodies do not read demographic cells and still render.
func Render(eng *engine.Engine, figs []Figure) ([]string, []error) {
	return render(results.Local{Eng: eng}, eng, figs)
}

// render is Render with the demographic cells run on b.
func render(b results.Backend, eng *engine.Engine, figs []Figure) ([]string, []error) {
	texts := make([]string, len(figs))
	errs := make([]error, len(figs))

	// The sweep writes each figure's block, reports it, then writes the
	// blank line between figures; a figure's text is its block.
	var demo []SweepFig
	var at []int // at[d] is demo[d]'s index in figs
	for i, f := range figs {
		if f.demo != nil {
			demo = append(demo, *f.demo)
			at = append(at, i)
		}
	}
	var buf strings.Builder
	done, start := 0, 0
	sweepErr := SweepProgress(b, demo, &buf, func(FigStats) {
		texts[at[done]] = buf.String()[start:]
		done++
		start = buf.Len() + 1
	})
	for _, i := range at[done:] {
		errs[i] = sweepErr
	}

	ms := matrices(figs)
	got := make([]series, len(ms))
	for k, m := range ms {
		got[k] = timeMatrix(eng, workload.All(), m)
	}
	for i, f := range figs {
		var err error
		switch {
		case f.demo != nil:
			continue
		case f.Timing():
			reads := make([]series, len(f.reads))
			for j, m := range f.reads {
				reads[j] = got[slices.Index(ms, m)]
				err = cmp.Or(err, reads[j].err)
			}
			if err == nil {
				texts[i] = f.tabulate(reads).String()
			}
		default:
			texts[i], err = f.body(eng)
		}
		if err != nil {
			errs[i] = fmt.Errorf("sweep %s: %w", f.ID, err)
		}
	}
	return texts, errs
}

// matrices lists the distinct timing matrices figs read, in the order
// they are first read.
func matrices(figs []Figure) []matrix {
	var ms []matrix
	for _, f := range figs {
		for _, m := range f.reads {
			if !slices.Contains(ms, m) {
				ms = append(ms, m)
			}
		}
	}
	return ms
}

// resetGCEvery is the forced-collection period for the §4.7 resetting
// experiment. The thesis ran MSA every 100 000 JVM instructions; our
// analogs execute far fewer runtime operations than the JVM executed
// bytecodes, so the period is scaled to keep a comparable number of
// cycles per run.
const resetGCEvery = 1200

// fig413 reproduces Figure 4.13: the number of objects recycled (§3.7)
// versus the total allocated, small runs. Recycling only engages under
// allocation pressure, so each benchmark shard calibrates its own arena
// from a probe run and retries with more slack if the budget undershoots
// the collector's peak holdings — per-benchmark control flow the
// engine's generic Do distributes across the pool. Each run is one job
// through RunEach, on a shard released once the closure has read it. A
// benchmark whose probe or last retry fails fails the figure with the
// first such error, in benchmark order.
func fig413(eng *engine.Engine, specs []workload.Spec) (string, error) {
	t := table.New("Fig 4.13: number of objects recycled, small runs",
		"benchmark", "objects recycled", "percent of total")
	recycled := make([]core.Stats, len(specs))
	errs := make([]error, len(specs))
	eng.Do(len(specs), func(i int) {
		// Calibrate the arena from a probe run: final live bytes plus
		// half the garbage bytes (the thesis sized its runs so the heap
		// filled).
		var live, garbage int
		probe := []engine.Job{{Workload: specs[i].Name, Size: 1, Collector: "cg"}}
		eng.RunEach(probe, func(_ int, r engine.Result) {
			if errs[i] = r.Err; r.Err == nil {
				live = r.RT.Heap.Arena().InUse()
				garbage = int(r.RT.Heap.Stats().BytesAlloc) - live
			}
		})
		if errs[i] != nil {
			return
		}
		budget := live + garbage/2

		// An undershot budget surfaces as a hard-OOM job error; widen
		// the slack and retry. The attempt cap turns a budget-independent
		// failure (anything but OOM) into a report instead of an
		// unbounded arena-growth loop.
		const maxAttempts = 24
		for attempt := 0; attempt < maxAttempts; attempt++ {
			job := []engine.Job{{Workload: specs[i].Name, Size: 1, Collector: "cg+recycle", HeapBytes: budget}}
			eng.RunEach(job, func(_ int, r engine.Result) {
				if errs[i] = r.Err; r.Err == nil {
					recycled[i] = r.Col.(*core.CG).Stats()
				}
			})
			if errs[i] == nil {
				return
			}
			budget += garbage/4 + 1<<10
		}
	})
	for i, s := range specs {
		if errs[i] != nil {
			return "", errs[i]
		}
		st := recycled[i]
		t.Rowf(s.Name, st.Reused, stats.Pct(st.Reused, st.Created))
	}
	return t.String(), nil
}
