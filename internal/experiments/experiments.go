// Package experiments regenerates every table and figure of the thesis's
// evaluation (Chapter 4 and Appendix A). Figures is the one list of them,
// in the thesis's order; Render renders any list of them on the caller's
// sharded execution engine, running each distinct demographic cell and
// each distinct timing matrix once however many figures read it. Sweep
// streams the demographic figures over any results.Backend.
//
// Determinism: every demographics cell runs on an isolated vm.Runtime
// shard with a deterministic workload RNG, and the pipeline delivers
// cells in submission order, so the rendered tables are byte-identical
// for any worker count (see TestEngineDeterminism). Only the wall-clock
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

// Render renders figs on eng and returns, per figure, its text — a
// measured-width table, or an example's narrative — or the error that
// failed it, "sweep <id>: ...". A failed cell or matrix fails only the
// figures that read it. The demographic figures' distinct cells run
// first, as one planned batch through results.Local; then each distinct
// timing matrix, in a batch of its own, so no timing cell shares the
// host with a demographic one or with another matrix's; then each
// figure renders, in order.
func Render(eng *engine.Engine, figs []Figure) ([]string, []error) {
	return render(results.Local{Eng: eng}, eng, figs)
}

// render is Render with the demographic cells run on b.
func render(b results.Backend, eng *engine.Engine, figs []Figure) ([]string, []error) {
	var demo []SweepFig
	var ms []matrix
	for _, f := range figs {
		if f.demo != nil {
			demo = append(demo, *f.demo)
		}
		for _, m := range f.reads {
			if !slices.Contains(ms, m) {
				ms = append(ms, m)
			}
		}
	}

	p := planSweep(demo)
	cells := make([]Cell, len(p.cells))
	cellErrs := make([]error, len(p.cells))
	runErr := b.Run(p.cells, func(i int, o results.Outcome) {
		cells[i], cellErrs[i] = CellFromOutcome(o)
	})
	got := make([]series, len(ms))
	for k, m := range ms {
		got[k] = timeMatrix(eng, workload.All(), m)
	}

	texts := make([]string, len(figs))
	errs := make([]error, len(figs))
	d := 0
	for i, f := range figs {
		var err error
		switch {
		case f.demo != nil:
			if err = runErr; err == nil {
				texts[i], err = demoTable(*f.demo, p.slots[d], cells, cellErrs)
			}
			d++
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

// demoTable renders a demographic figure as a measured-width table from
// the planned cells its jobs map to (slots), failing with the first
// failed cell it reads.
func demoTable(f SweepFig, slots []int, cells []Cell, errs []error) (string, error) {
	t := table.New(f.Title, f.Headers...)
	row := make([]Cell, 0, f.CellsPerRow)
	for r := 0; r < f.Rows(); r++ {
		row = row[:0]
		for _, slot := range slots[r*f.CellsPerRow : (r+1)*f.CellsPerRow] {
			if errs[slot] != nil {
				return "", errs[slot]
			}
			row = append(row, cells[slot])
		}
		t.Rowf(f.Row(r, row)...)
	}
	return t.String(), nil
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
// engine's generic Do distributes across the pool. A benchmark whose
// probe or last retry fails fails the figure with the first such error,
// in benchmark order.
func fig413(eng *engine.Engine, specs []workload.Spec) (string, error) {
	t := table.New("Fig 4.13: number of objects recycled, small runs",
		"benchmark", "objects recycled", "percent of total")
	recycled := make([]core.Stats, len(specs))
	errs := make([]error, len(specs))
	eng.Do(len(specs), func(i int) {
		// Calibrate the arena from a probe run: final live bytes plus
		// half the garbage bytes (the thesis sized its runs so the heap
		// filled).
		probe := engine.Exec(engine.Job{Workload: specs[i].Name, Size: 1, Collector: "cg"})
		if probe.Err != nil {
			errs[i] = probe.Err
			return
		}
		live := probe.RT.Heap.Arena().InUse()
		garbage := int(probe.RT.Heap.Stats().BytesAlloc) - live
		budget := live + garbage/2

		// An undershot budget surfaces as a hard-OOM job error; widen
		// the slack and retry. The attempt cap turns a budget-independent
		// failure (anything but OOM) into a report instead of an
		// unbounded arena-growth loop.
		const maxAttempts = 24
		var lastErr error
		for attempt := 0; attempt < maxAttempts; attempt++ {
			r := engine.Exec(engine.Job{Workload: specs[i].Name, Size: 1,
				Collector: "cg+recycle", HeapBytes: budget})
			if r.Err == nil {
				recycled[i] = r.Col.(*core.CG).Stats()
				return
			}
			lastErr = r.Err
			budget += garbage/4 + 1<<10
		}
		errs[i] = lastErr
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
