// Command cgbench regenerates every table and figure of the thesis's
// evaluation (Chapter 4 and Appendix A) and prints them in order. The
// (workload × size × collector) matrix runs on the sharded execution
// engine; -workers controls the pool size.
//
// Usage:
//
//	cgbench                 # everything, saturating the host
//	cgbench -workers 1      # sequential (paper-grade absolute timings)
//	cgbench -fig 4.1        # a single figure
//	cgbench -skip-timing    # demographics only (fast, deterministic)
//	cgbench -skip-large     # omit the size-100 sweeps
//
// Demographics tables are byte-identical for any -workers value; only
// the wall-clock figures (4.7, 4.8, 4.10, 4.12, A.5-A.7) vary.
//
// cgbench renders figures and nothing else. What a layer costs is read
// off the end-to-end ledger (bench/run.sh, DESIGN.md "Why there is one
// ledger") or `go test -bench` at the repository root.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/table"
)

func main() {
	fig := flag.String("fig", "", "regenerate a single figure (e.g. 4.1, 4.5, A.2)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	skipTiming := flag.Bool("skip-timing", false, "skip the wall-clock experiments (4.7, 4.8, 4.10, 4.12, A.5-A.7)")
	skipLarge := flag.Bool("skip-large", false, "skip the size-100 sweeps (4.4, 4.9, 4.10 large column, A.4, A.7)")
	flag.Parse()

	eng := timingEngine(*workers)

	// timed renders a figure that reports a failed cell (the wall-clock
	// ones and 4.13): it fails with its one "sweep <id>: ..." line.
	timed := func(t *table.Table, err error) string {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cgbench:", err)
			os.Exit(1)
		}
		return t.String()
	}
	type gen struct {
		id     string
		timing bool
		large  bool
		render func() string
	}
	gens := []gen{
		{"2.1", false, false, experiments.Example21},
		{"3.1", false, false, experiments.Example31},
		{"4.1", false, false, func() string { return experiments.Fig41(eng).String() }},
		{"4.2", false, false, func() string { return experiments.Fig42_44(eng, 1).String() }},
		{"4.3", false, false, func() string { return experiments.Fig42_44(eng, 10).String() }},
		{"4.4", false, true, func() string { return experiments.Fig42_44(eng, 100).String() }},
		{"4.5", false, false, func() string { return experiments.Fig45(eng).String() }},
		{"4.6", false, false, func() string { return experiments.Fig46(eng).String() }},
		{"4.7", true, false, func() string { return timed(experiments.Fig47_48(eng, 1)) }},
		{"4.8", true, false, func() string { return timed(experiments.Fig47_48(eng, 10)) }},
		{"4.9", false, true, func() string { return experiments.Fig49(eng).String() }},
		{"4.10", true, true, func() string { return timed(experiments.Fig410(eng, []int{1, 10, 100})) }},
		{"4.11", false, false, func() string { return experiments.Fig411(eng).String() }},
		{"4.12", true, false, func() string { return timed(experiments.Fig412(eng)) }},
		{"4.13", false, false, func() string { return timed(experiments.Fig413(eng)) }},
		{"A.1", false, false, func() string { return experiments.FigA1(eng).String() }},
		{"A.2", false, false, func() string { return experiments.FigA2_4(eng, 1).String() }},
		{"A.3", false, false, func() string { return experiments.FigA2_4(eng, 10).String() }},
		{"A.4", false, true, func() string { return experiments.FigA2_4(eng, 100).String() }},
		{"A.5", true, false, func() string { return timed(experiments.FigA5_7(eng, 1)) }},
		{"A.6", true, false, func() string { return timed(experiments.FigA5_7(eng, 10)) }},
		{"A.7", true, true, func() string { return timed(experiments.FigA5_7(eng, 100)) }},
	}

	matched := false
	for _, g := range gens {
		if *fig != "" && g.id != *fig {
			continue
		}
		if *fig == "" && ((*skipTiming && g.timing) || (*skipLarge && g.large)) {
			continue
		}
		matched = true
		fmt.Println(g.render())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "cgbench: unknown figure %q\n", *fig)
		os.Exit(1)
	}
}

// timingEngine builds the engine behind the figures. The wall-clock
// ones (4.7, 4.8, 4.10, 4.12, A.5–A.7) print Result.Elapsed as the time
// a program takes under a collector, so no cell may be served by
// replaying a tape: the cache is off, and every cell drives.
func timingEngine(workers int) *engine.Engine {
	return engine.New(workers).SetTapeCache(false)
}
