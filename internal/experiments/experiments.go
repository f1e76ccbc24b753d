// Package experiments regenerates every table and figure of the thesis's
// evaluation (Chapter 4 and Appendix A). Each Fig* function describes
// the relevant (workload × size × collector) cells as engine jobs,
// submits them to the caller's sharded execution engine, and renders
// the same rows the paper reports from the merged results.
//
// Determinism: every demographics cell runs on an isolated vm.Runtime
// shard with a deterministic workload RNG, and results land in
// submission-order slots, so the rendered tables are byte-identical
// for any worker count (see TestEngineDeterminism). Only the wall-clock
// figures (4.7, 4.8, 4.10, 4.12, A.5–A.7) vary run to run, as they did
// on the thesis's hardware.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/obs"
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

// RunDemographics executes demographics jobs on the engine and returns
// one Cell per job in submission order. Shards are released as their
// cells complete (a size-100 shard holds millions of live objects;
// retaining the whole matrix until render would multiply peak memory by
// the job count). Every job must resolve to a contaminated-collector
// variant. cmd/cgstats shares this path with the Fig* regenerators.
func RunDemographics(eng *engine.Engine, jobs []engine.Job) ([]Cell, error) {
	cells := make([]Cell, len(jobs))
	errs := make([]error, len(jobs))
	eng.RunEach(jobs, func(i int, r engine.Result) {
		if r.Err != nil {
			errs[i] = r.Err
			return
		}
		cg, ok := r.Col.(*core.CG)
		if !ok {
			errs[i] = fmt.Errorf("experiments: %q is not the contaminated collector", jobs[i].Collector)
			return
		}
		cells[i] = Cell{B: cg.Snapshot(), St: cg.Stats(), GC: r.RT.GCCycles(),
			Info: r.RT.Heap.Arena().Info(), Obs: r.RT.Timeline().Stats()}
	})
	// Fail on the caller's goroutine, not a worker's.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// Fig41 reproduces Figure 4.1: per benchmark, objects created and the
// percentage collectable without and with the §3.4 optimization (size 1).
func Fig41(eng *engine.Engine) *table.Table {
	return renderFig(eng, fig41Data(workload.All()))
}

// Fig42_44 reproduces Figures 4.2 (size 1), 4.3 (size 10) and 4.4
// (size 100): the static and thread-shared percentages per benchmark.
func Fig42_44(eng *engine.Engine, size int) *table.Table {
	return renderFig(eng, fig42_44Data(workload.All(), size))
}

func figFromSize(size int) int {
	switch size {
	case 1:
		return 2
	case 10:
		return 3
	default:
		return 4
	}
}

// Fig45 reproduces Figure 4.5: the distribution of equilive block sizes
// at collection time, plus the percentage of objects that were collected
// exactly (singleton blocks).
func Fig45(eng *engine.Engine) *table.Table {
	return renderFig(eng, fig45Data(workload.All()))
}

// Fig46 reproduces Figure 4.6: the age at death (frame distance from
// birth to collection) of CG-collected objects.
func Fig46(eng *engine.Engine) *table.Table {
	return renderFig(eng, fig46Data(workload.All()))
}

// Fig49 reproduces Figure 4.9: the large (size 100) runs — objects
// created, percentage collectable with the optimization, and percentage
// exactly collectable.
func Fig49(eng *engine.Engine) *table.Table {
	return renderFig(eng, fig49Data(workload.All()))
}

// FigA1 reproduces Figure A.1: of the objects treated as static, the
// percentage demoted because of sharing among threads.
func FigA1(eng *engine.Engine) *table.Table {
	return renderFig(eng, figA1Data(workload.All()))
}

// FigA2_4 reproduces Figures A.2 (small), A.3 (medium) and A.4 (large):
// the absolute object breakdown into popped / static / thread.
func FigA2_4(eng *engine.Engine, size int) *table.Table {
	return renderFig(eng, figA2_4Data(workload.All(), size))
}

// resetGCEvery is the forced-collection period for the §4.7 resetting
// experiment. The thesis ran MSA every 100 000 JVM instructions; our
// analogs execute far fewer runtime operations than the JVM executed
// bytecodes, so the period is scaled to keep a comparable number of
// cycles per run.
const resetGCEvery = 1200

// Fig411 reproduces Figure 4.11: resetting CG structures during forced
// traditional collections — objects collected by MSA, objects found less
// live than CG believed, and the number of GC cycles.
func Fig411(eng *engine.Engine) *table.Table {
	return renderFig(eng, fig411Data(workload.All()))
}

// Fig413 reproduces Figure 4.13: the number of objects recycled (§3.7)
// versus the total allocated, small runs. Recycling only engages under
// allocation pressure, so each benchmark shard calibrates its own arena
// from a probe run and retries with more slack if the budget undershoots
// the collector's peak holdings — per-benchmark control flow the
// engine's generic Do distributes across the pool. A benchmark whose
// probe or last retry fails fails the figure with the first such error,
// in benchmark order, worded as the timing figures word theirs.
func Fig413(eng *engine.Engine) (*table.Table, error) {
	t := table.New("Fig 4.13: number of objects recycled, small runs",
		"benchmark", "objects recycled", "percent of total")
	specs := workload.All()
	results := make([]core.Stats, len(specs))
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
				results[i] = r.Col.(*core.CG).Stats()
				return
			}
			lastErr = r.Err
			budget += garbage/4 + 1<<10
		}
		errs[i] = lastErr
	})
	for i, s := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("sweep 4.13: %w", errs[i])
		}
		st := results[i]
		t.Rowf(s.Name, st.Reused, stats.Pct(st.Reused, st.Created))
	}
	return t, nil
}
