package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

// SweepFig describes one cell-based (demographics) figure as data: the
// jobs of its matrix slice, grouped CellsPerRow cells per table row,
// and the pure function mapping a row's cells to its rendered values.
// One description drives both execution paths — the batch Fig*
// functions (cgbench: measure-then-render tables) and Sweep (cgsweep:
// streamed rows over any results.Backend) — so the figure's semantics
// cannot drift between the in-process and distributed pipelines.
// Wall-clock figures are not SweepFigs: their cells are re-run
// repeatedly with per-benchmark control flow, which is exactly what a
// serialisable cell is not.
type SweepFig struct {
	ID          string
	Title       string
	Headers     []string
	Jobs        []engine.Job
	CellsPerRow int
	Row         func(row int, cells []Cell) []any
}

// Rows reports the figure's data-row count.
func (f SweepFig) Rows() int { return len(f.Jobs) / f.CellsPerRow }

// DemographicFigs returns the sweepable figures — every id for no
// arguments, else the named subset — in the thesis's presentation
// order.
func DemographicFigs(ids ...string) ([]SweepFig, error) {
	specs := workload.All()
	all := []SweepFig{
		fig41Data(specs),
		fig42_44Data(specs, 1),
		fig42_44Data(specs, 10),
		fig42_44Data(specs, 100),
		fig45Data(specs),
		fig46Data(specs),
		fig49Data(specs),
		fig411Data(specs),
		figA1Data(specs),
		figA2_4Data(specs, 1),
		figA2_4Data(specs, 10),
		figA2_4Data(specs, 100),
	}
	if len(ids) == 0 {
		return all, nil
	}
	byID := make(map[string]SweepFig, len(all))
	for _, f := range all {
		byID[f.ID] = f
	}
	out := make([]SweepFig, 0, len(ids))
	for _, id := range ids {
		f, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("experiments: no sweepable figure %q (have %s)", id, figIDs(all))
		}
		out = append(out, f)
	}
	return out, nil
}

func figIDs(figs []SweepFig) string {
	s := ""
	for i, f := range figs {
		if i > 0 {
			s += ", "
		}
		s += f.ID
	}
	return s
}

// CellFromOutcome converts a serialised cell back to the demographics
// extract the figure renderers consume.
func CellFromOutcome(o results.Outcome) (Cell, error) {
	if err := o.Failed(); err != nil {
		return Cell{}, err
	}
	if o.Payload.CG == nil {
		return Cell{}, fmt.Errorf("experiments: %q is not the contaminated collector", o.Job.Collector)
	}
	c := Cell{B: o.Payload.CG.Breakdown, St: o.Payload.CG.Stats, GC: o.GCCycles}
	if o.Obs != nil {
		c.Obs = *o.Obs
	}
	return c, nil
}

// Sweep renders figs through b, streaming each figure's rows to w the
// moment their cells have been emitted. The sweep is planned: figures
// are views of overlapping runs (Figs 4.4, 4.9 and A.4 all describe the
// size-100 programs under plain cg), so their jobs are first folded
// into the distinct cells of the whole request and b runs that list as
// one batch — every cell once, no barrier between figures.
//
// Output is deterministic for any backend configuration: the plan
// orders cells by first occurrence, b emits outcomes in submission
// order (the Backend contract), figures render in the order given, row
// values are pure functions of cells, and the sink's columns are sized
// from the headers alone — so `-procs 4` against worker processes and
// an in-process `-workers 1` run render byte-identical bytes, and a
// resumed sweep renders the same bytes it would have cold.
func Sweep(b results.Backend, figs []SweepFig, w io.Writer) error {
	return SweepProgress(b, figs, w, nil)
}

// FigStats is what SweepProgress reports as a figure's last row
// flushes.
type FigStats struct {
	Fig SweepFig
	// Computed counts the cells the backend computed on this figure's
	// account: those it is the first in the sweep to use and that did
	// not come out of a store. The rest of its len(Fig.Jobs) cells were
	// delivered without running anything — shared with an earlier
	// figure by the plan, or read from disk.
	Computed int
}

// plan is a sweep's deduplicated grid.
type plan struct {
	// cells are the distinct cells of the figures' jobs, by results.Key,
	// in first-occurrence order; first[c] is the figure that introduced
	// cells[c].
	cells []engine.Job
	first []int
	// slots[f][j] is the index in cells of figs[f].Jobs[j].
	slots [][]int
}

func planSweep(figs []SweepFig) plan {
	p := plan{slots: make([][]int, len(figs))}
	seen := make(map[string]int)
	for fi, f := range figs {
		p.slots[fi] = make([]int, len(f.Jobs))
		for ji, job := range f.Jobs {
			key, err := results.Key(job)
			slot, ok := seen[key]
			if err != nil || !ok {
				// A job that has no key (unknown workload or collector)
				// keeps a cell of its own: the backend reports why it
				// cannot run, as it would have unplanned.
				slot = len(p.cells)
				p.cells = append(p.cells, job)
				p.first = append(p.first, fi)
				if err == nil {
					seen[key] = slot
				}
			}
			p.slots[fi][ji] = slot
		}
	}
	return p
}

// SweepProgress is Sweep with a per-figure completion hook: report, when
// non-nil, runs after each figure's rows have flushed — cgsweep prints
// its per-figure stderr line from it. The hook is outside the
// deterministic output path (it never writes to w), so a reporting
// sweep renders the same bytes as a silent one.
func SweepProgress(b results.Backend, figs []SweepFig, w io.Writer, report func(FigStats)) error {
	if len(figs) == 0 {
		return nil
	}
	p := planSweep(figs)
	cells := make([]Cell, len(p.cells))
	have := make([]bool, len(p.cells))
	computed := make([]int, len(figs))

	// The render cursor: figure cur is open on sink with rows [0, row)
	// written. advance writes every row whose cells have all arrived
	// and, each time a figure completes, flushes it and opens the next,
	// so w sees figures in order however far ahead the cells are.
	cur, row := 0, 0
	sink := results.NewSink(w, figs[0].Title, figs[0].Rows(), figs[0].Headers...)
	var sweepErr error
	var rowCells []Cell
	// arrived gathers the cells of figure cur's next row into rowCells
	// and reports whether all of them have been emitted.
	arrived := func() bool {
		n := figs[cur].CellsPerRow
		rowCells = rowCells[:0]
		for _, slot := range p.slots[cur][row*n : (row+1)*n] {
			if !have[slot] {
				return false
			}
			rowCells = append(rowCells, cells[slot])
		}
		return true
	}
	advance := func() {
		for {
			f := figs[cur]
			for row < f.Rows() && arrived() {
				sink.Row(row, f.Row(row, rowCells)...)
				row++
			}
			if row < f.Rows() {
				return
			}
			if err := sink.Flush(); err != nil {
				sweepErr = fmt.Errorf("sweep %s: %w", f.ID, err)
				return
			}
			if report != nil {
				report(FigStats{Fig: f, Computed: computed[cur]})
			}
			if cur++; cur == len(figs) {
				return
			}
			if _, err := fmt.Fprintln(w); err != nil {
				sweepErr = err
				return
			}
			row = 0
			sink = results.NewSink(w, figs[cur].Title, figs[cur].Rows(), figs[cur].Headers...)
		}
	}
	advance() // figures without rows need no cell to complete

	err := b.Run(p.cells, func(i int, o results.Outcome) {
		if sweepErr != nil || cur == len(figs) {
			return
		}
		c, err := CellFromOutcome(o)
		if err != nil {
			// The figure that introduced the cell is the first to need
			// it, and everything before that figure has flushed.
			sweepErr = fmt.Errorf("sweep %s: %w", figs[p.first[i]].ID, err)
			return
		}
		cells[i], have[i] = c, true
		if !o.Stored {
			computed[p.first[i]]++
		}
		advance()
	})
	if sweepErr != nil {
		return sweepErr
	}
	if err == nil && cur < len(figs) {
		err = sink.Flush() // reports the missing rows
	}
	if err != nil {
		return fmt.Errorf("sweep %s: %w", figs[min(cur, len(figs)-1)].ID, err)
	}
	return nil
}

// renderFig is the batch path behind the Fig* functions: run the
// figure's cells on eng, then render the classic measured-width table.
// The figure matrix has no legitimate failure mode, so an error is a
// harness bug and panics (as the Fig* API always has).
func renderFig(eng *engine.Engine, f SweepFig) *table.Table {
	cells, err := RunDemographics(eng, f.Jobs)
	if err != nil {
		panic(err)
	}
	t := table.New(f.Title, f.Headers...)
	for row := 0; row < f.Rows(); row++ {
		t.Rowf(f.Row(row, cells[row*f.CellsPerRow:(row+1)*f.CellsPerRow])...)
	}
	return t
}

// perBenchmark builds the one-plenty-of-storage-cell-per-benchmark job
// list shared by most demographics figures.
func perBenchmark(specs []workload.Spec, size int, collector string, gcEvery uint64) []engine.Job {
	jobs := make([]engine.Job, len(specs))
	for i, s := range specs {
		jobs[i] = engine.Job{Workload: s.Name, Size: size, Collector: collector, GCEvery: gcEvery}
	}
	return jobs
}

func fig41Data(specs []workload.Spec) SweepFig {
	// One interleaved 2N-cell matrix, not two N-cell barriers: both
	// collector sweeps share whatever pool runs them.
	jobs := make([]engine.Job, 0, 2*len(specs))
	for _, s := range specs {
		jobs = append(jobs,
			engine.Job{Workload: s.Name, Size: 1, Collector: "cg+noopt"},
			engine.Job{Workload: s.Name, Size: 1, Collector: "cg"})
	}
	return SweepFig{
		ID:          "4.1",
		Title:       "Fig 4.1: percentage of objects collectable, without and with the static optimization (size 1)",
		Headers:     []string{"benchmark", "description", "objects created", "no opt", "with opt"},
		Jobs:        jobs,
		CellsPerRow: 2,
		Row: func(row int, cells []Cell) []any {
			s := specs[row]
			bn, bw := cells[0].B, cells[1].B
			return []any{s.Name, s.Desc, bw.Created,
				stats.Pct(bn.Popped, bn.Created), stats.Pct(bw.Popped, bw.Created)}
		},
	}
}

func fig42_44Data(specs []workload.Spec, size int) SweepFig {
	return SweepFig{
		ID: fmt.Sprintf("4.%d", figFromSize(size)),
		Title: fmt.Sprintf("Fig 4.%d: objects treated as static and as thread-shared (size %d)",
			figFromSize(size), size),
		Headers:     []string{"benchmark", "created", "collectable", "static", "thread-shared"},
		Jobs:        perBenchmark(specs, size, "cg", 0),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			b := cells[0].B
			return []any{specs[row].Name, b.Created, stats.Pct(b.Popped, b.Created),
				stats.Pct(b.Static, b.Created), stats.Pct(b.Thread, b.Created)}
		},
	}
}

func fig45Data(specs []workload.Spec) SweepFig {
	return SweepFig{
		ID:    "4.5",
		Title: "Fig 4.5: distribution of collected block sizes (size 1)",
		Headers: []string{"benchmark", "total collectable",
			"1", "2", "3", "4", "5", "6-10", ">10", "percent exact"},
		Jobs:        perBenchmark(specs, 1, "cg", 0),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			st, b := cells[0].St, cells[0].B
			return []any{specs[row].Name, b.Popped,
				st.BlockSize[0], st.BlockSize[1], st.BlockSize[2], st.BlockSize[3],
				st.BlockSize[4], st.BlockSize[5], st.BlockSize[6],
				stats.Pct(st.Singleton, b.Created)}
		},
	}
}

func fig46Data(specs []workload.Spec) SweepFig {
	return SweepFig{
		ID:          "4.6",
		Title:       "Fig 4.6: age at death of collected objects, in frame distance (size 1)",
		Headers:     []string{"benchmark", "0", "1", "2", "3", "4", "5", ">5"},
		Jobs:        perBenchmark(specs, 1, "cg", 0),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			st := cells[0].St
			return []any{specs[row].Name,
				st.AgeAtDeath[0], st.AgeAtDeath[1], st.AgeAtDeath[2], st.AgeAtDeath[3],
				st.AgeAtDeath[4], st.AgeAtDeath[5], st.AgeAtDeath[6]}
		},
	}
}

func fig49Data(specs []workload.Spec) SweepFig {
	return SweepFig{
		ID:          "4.9",
		Title:       "Fig 4.9: SPEC benchmarks, large runs (size 100)",
		Headers:     []string{"benchmark", "objects created", "collectable (with opt)", "exactly collectable"},
		Jobs:        perBenchmark(specs, 100, "cg", 0),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			b, st := cells[0].B, cells[0].St
			return []any{specs[row].Name, b.Created,
				stats.Pct(b.Popped, b.Created), stats.Pct(st.Singleton, b.Created)}
		},
	}
}

func fig411Data(specs []workload.Spec) SweepFig {
	return SweepFig{
		ID: "4.11",
		Title: fmt.Sprintf("Fig 4.11: resetting results, small runs (MSA forced every %d operations)",
			resetGCEvery),
		Headers:     []string{"benchmark", "collected by MSA", "less live", "moved from static", "GC cycles"},
		Jobs:        perBenchmark(specs, 1, "cg+reset", resetGCEvery),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			st := cells[0].St
			return []any{specs[row].Name, st.MSAFreed, st.LessLive, st.FromStatic, cells[0].GC}
		},
	}
}

func figA1Data(specs []workload.Spec) SweepFig {
	return SweepFig{
		ID:          "A.1",
		Title:       "Fig A.1: static objects due to sharing among threads (size 1)",
		Headers:     []string{"benchmark", "total static+thread", "percent due to threads"},
		Jobs:        perBenchmark(specs, 1, "cg", 0),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			b := cells[0].B
			immortal := b.Static + b.Thread
			return []any{specs[row].Name, immortal, stats.Pct(b.Thread, immortal)}
		},
	}
}

func figA2_4Data(specs []workload.Spec, size int) SweepFig {
	return SweepFig{
		ID:          fmt.Sprintf("A.%d", figFromSize(size)),
		Title:       fmt.Sprintf("Fig A.%d: object breakdown (size %d)", figFromSize(size), size),
		Headers:     []string{"benchmark", "popped", "static", "thread"},
		Jobs:        perBenchmark(specs, size, "cg", 0),
		CellsPerRow: 1,
		Row: func(row int, cells []Cell) []any {
			b := cells[0].B
			return []any{specs[row].Name, b.Popped, b.Static, b.Thread}
		},
	}
}
