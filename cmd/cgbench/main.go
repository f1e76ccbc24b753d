// Command cgbench regenerates every table and figure of the thesis's
// evaluation (Chapter 4 and Appendix A) and prints them in order: it
// renders experiments.Figures, the one list of ids, on one sharded
// execution engine; -workers controls the pool size. The demographic
// figures run as one sweep through the cell pipeline, each distinct
// cell once, and each prints exactly what `cgsweep -figs <id>` prints
// for it; each timing matrix runs once, after them, for every figure
// that reads it (DESIGN.md §4).
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
// the wall-clock figures (4.7, 4.8, 4.10, 4.12, A.5-A.7) vary. A figure
// that fails prints one "cgbench: sweep <id>: ..." line on stderr; the
// others still print, and cgbench exits 1 at the end. A failed
// demographic cell fails, as in cgsweep, the first figure to read it
// and every demographic figure after that one.
//
// cgbench renders figures and nothing else. What a layer costs is read
// off the end-to-end ledger (bench/run.sh, DESIGN.md "Why there is one
// ledger") or `go test -bench` at the repository root.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "regenerate a single figure (e.g. 4.1, 4.5, A.2)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	skipTiming := flag.Bool("skip-timing", false, "skip the wall-clock experiments (4.7, 4.8, 4.10, 4.12, A.5-A.7)")
	skipLarge := flag.Bool("skip-large", false, "skip the size-100 sweeps (4.4, 4.9, 4.10, A.4, A.7)")
	flag.Parse()

	figs, err := experiments.Figures()
	if *fig != "" {
		figs, err = experiments.Figures(*fig)
	} else {
		figs = slices.DeleteFunc(figs, func(f experiments.Figure) bool {
			return (*skipTiming && f.Timing()) || (*skipLarge && f.Large())
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgbench:", err)
		os.Exit(1)
	}

	texts, errs := experiments.Render(engine.New(*workers), figs)
	failed := false
	for i, text := range texts {
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "cgbench:", errs[i])
			failed = true
			continue
		}
		fmt.Println(text)
	}
	if failed {
		os.Exit(1)
	}
}
