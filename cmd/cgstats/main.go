// Command cgstats runs the SPECjvm98 workload analogs under the
// contaminated collector and dumps per-benchmark object demographics:
// created / popped / static / thread-shared counts, block-size and
// age-at-death histograms — the raw material of the thesis's Figures
// 4.1–4.6 and A.1–A.4 — plus a merged total row aggregated across all
// shards.
//
// The benchmark matrix runs on the sharded execution engine; -workers
// controls the pool. Output is byte-identical for any worker count.
//
// Usage:
//
//	cgstats [-size N] [-collector spec] [-bench name] [-workers N] [-arena-stats]
//	cgstats -pauses -gc-every 100000      # pause-time distributions under forced MSA cycles
//
// -pauses appends a per-benchmark pause-time table — cycle counts,
// p50/p95/max stop-the-world pause, cumulative mark and sweep time, and
// the log-scale pause histogram's non-empty buckets. Demographics cells
// run with the traditional collector idle, so pair -pauses with
// -gc-every N (force a full collection every N runtime operations) or a
// collector variant that actually cycles; otherwise the table reports
// zero cycles. Pause durations are wall-clock measurements and vary run
// to run — everything else in cgstats's output stays deterministic.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	size := flag.Int("size", 1, "SPEC problem size (1, 10 or 100)")
	collector := flag.String("collector", "cg",
		fmt.Sprintf("collector spec; must resolve to the contaminated collector (bases: %s)",
			strings.Join(collectors.Names(), ", ")))
	bench := flag.String("bench", "", "run a single benchmark (default: all)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	arenaStats := flag.Bool("arena-stats", false,
		"append a per-benchmark arena occupancy table (capacity / heap / alloc / overhead from the slab arena's O(1) counters)")
	pauses := flag.Bool("pauses", false,
		"append a per-benchmark pause-time distribution table (pair with -gc-every so cycles actually run)")
	gcEvery := flag.Uint64("gc-every", 0,
		"force a full traditional collection every N runtime operations (0 = off; the §4.7 resetting instrumentation)")
	flag.Parse()
	if *size < 1 {
		fmt.Fprintf(os.Stderr, "cgstats: -size %d: want a positive size\n", *size)
		os.Exit(2)
	}

	spec := *collector
	probe, err := collectors.New(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgstats:", err)
		os.Exit(1)
	}
	// Reject non-CG specs before the matrix runs, not after: the tool
	// reports CG-specific demographics.
	if _, ok := probe.Collector.(*core.CG); !ok {
		fmt.Fprintf(os.Stderr, "cgstats: collector %q is not the contaminated collector\n", spec)
		os.Exit(1)
	}

	specs := workload.All()
	if *bench != "" {
		s, err := workload.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		specs = []workload.Spec{s}
	}

	// One plenty-of-storage shard per benchmark: demographics are
	// measured with the traditional collector idle ("asynchronous GC
	// disabled … plenty of storage", §4.5).
	jobs := make([]engine.Job, len(specs))
	for i, s := range specs {
		jobs[i] = engine.Job{Workload: s.Name, Size: *size, Collector: spec, GCEvery: *gcEvery}
	}
	// The cell pipeline extracts each shard's counters as its cell
	// completes and recycles the runtime; a size-100 sweep would
	// otherwise keep every shard's live set in memory until render.
	cells := make([]experiments.Cell, len(jobs))
	var failed error
	err = results.Local{Eng: engine.New(*workers)}.Run(jobs, func(i int, o results.Outcome) {
		var err error
		if cells[i], err = experiments.CellFromOutcome(o); failed == nil {
			failed = err
		}
	})
	if err := cmp.Or(err, failed); err != nil {
		fmt.Fprintln(os.Stderr, "cgstats:", err)
		os.Exit(1)
	}

	tb := table.New(
		fmt.Sprintf("Object demographics, size %d (collector %s)", *size, spec),
		"benchmark", "created", "popped", "static", "thread", "live", "collectable", "exact",
	)
	hists := table.New("Block sizes and age at death",
		"benchmark", "blocks(1,2,3,4,5,6-10,>10)", "age(0..5,>5)")
	var totalB core.Breakdown
	var totalS core.Stats
	for i, s := range specs {
		b := cells[i].B
		st := cells[i].St
		totalB.Merge(b)
		totalS.Merge(st)
		tb.Rowf(s.Name, b.Created, b.Popped, b.Static, b.Thread, b.Live,
			stats.Pct(b.Popped, b.Created), stats.Pct(st.Singleton, b.Created))
		hists.Rowf(s.Name, fmt.Sprint(st.BlockSize), fmt.Sprint(st.AgeAtDeath))
	}
	if len(specs) > 1 {
		tb.Rowf("total", totalB.Created, totalB.Popped, totalB.Static, totalB.Thread, totalB.Live,
			stats.Pct(totalB.Popped, totalB.Created), stats.Pct(totalS.Singleton, totalB.Created))
		hists.Rowf("total", fmt.Sprint(totalS.BlockSize), fmt.Sprint(totalS.AgeAtDeath))
	}
	fmt.Print(tb)
	fmt.Println()
	fmt.Print(hists)
	if *arenaStats {
		// End-of-run occupancy of each shard's slab arena, straight from
		// the O(1) Info counters: heap = pages drawn from the arena,
		// alloc = live object bytes, overhead = size-class slack and
		// free-list bookkeeping inside those pages.
		at := table.New("Arena occupancy at end of run",
			"benchmark", "capacity", "heap", "alloc", "overhead", "heap/cap", "alloc/heap")
		for i, s := range specs {
			in := cells[i].Info
			at.Rowf(s.Name, in.Capacity, in.HeapBytes, in.AllocBytes, in.Overhead,
				stats.Pct(uint64(in.HeapBytes), uint64(in.Capacity)),
				stats.Pct(uint64(in.AllocBytes), uint64(in.HeapBytes)))
		}
		fmt.Println()
		fmt.Print(at)
	}
	if *pauses {
		// Per-cell pause-time distributions from the cycle timelines. The
		// merged total row demonstrates the order-independent histogram
		// merge the stored outcomes rely on.
		pt := table.New("Collection pause times",
			"benchmark", "cycles", "p50", "p95", "max", "mark", "sweep", "pause buckets")
		var total obs.CycleStats
		for i, s := range specs {
			cs := cells[i].Obs
			total.Merge(&cs)
			pt.Rowf(s.Name, cs.Cycles, cs.Pause.Quantile(0.50), cs.Pause.Quantile(0.95),
				cs.Pause.Max(), time.Duration(cs.MarkNS), time.Duration(cs.SweepNS),
				bucketSummary(&cs.Pause))
		}
		if len(specs) > 1 {
			pt.Rowf("total", total.Cycles, total.Pause.Quantile(0.50), total.Pause.Quantile(0.95),
				total.Pause.Max(), time.Duration(total.MarkNS), time.Duration(total.SweepNS),
				bucketSummary(&total.Pause))
		}
		fmt.Println()
		fmt.Print(pt)
	}
}

// bucketSummary renders a histogram's non-empty buckets as
// "≤bound:count" pairs — the full distribution, without 40 columns of
// mostly zeros.
func bucketSummary(h *obs.Histogram) string {
	if h.Count == 0 {
		return "-"
	}
	var b strings.Builder
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "≤%v:%d", time.Duration(obs.BucketBound(i)), n)
	}
	return b.String()
}
