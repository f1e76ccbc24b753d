// Command t100 is the large-run throughput harness: it executes the
// benchmark analogs at SPEC size 100 (or any -size) under two or more
// collectors resolved from their specs, head to head, and reports wall
// time, GC cycles and the speedup of the first collector over the last.
// It runs on the sharded execution engine, so the whole
// (benchmark × collector) matrix runs concurrently under -workers.
//
// Absolute times under -workers N > 1 include scheduling contention —
// every collector pays it equally, so the speedup column stays
// meaningful — but for paper-grade absolute numbers use -workers 1.
//
// Usage:
//
//	t100 [-size N] [-collectors cg,msa] [-bench a,b,...] [-repeats N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	size := flag.Int("size", 100, "SPEC problem size")
	specList := flag.String("collectors", "cg,msa",
		fmt.Sprintf("comma-separated collector specs to race (bases: %s)", strings.Join(collectors.Names(), ", ")))
	benchList := flag.String("bench", "", "comma-separated benchmarks (default: all)")
	repeats := flag.Int("repeats", 1, "averaging repeats per cell")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	flag.Parse()

	if *specList == "" {
		fatal(fmt.Errorf("need at least one collector"))
	}
	cols := strings.Split(*specList, ",")
	for _, c := range cols {
		if _, err := collectors.Parse(c); err != nil {
			fatal(err)
		}
	}

	specs := workload.All()
	if *benchList != "" {
		specs = specs[:0]
		for _, name := range strings.Split(*benchList, ",") {
			s, err := workload.ByName(name)
			if err != nil {
				fatal(err)
			}
			specs = append(specs, s)
		}
	}

	// The full matrix in one submission: jobs[i*len(cols)+j] is
	// benchmark i under collector j, each on its own tight-heap shard.
	jobs := make([]engine.Job, 0, len(specs)*len(cols))
	for _, s := range specs {
		for _, c := range cols {
			jobs = append(jobs, engine.Job{Workload: s.Name, Size: *size,
				Collector: c, HeapBytes: engine.TightHeap, Repeats: *repeats})
		}
	}
	// The table prints Result.Elapsed as the time a program takes under a
	// collector; RunEach drives every cell, so that is what it measures.
	eng := engine.New(*workers)
	// Extract per-cell wall time and cycle counts as shards complete;
	// size-100 tight heaps are modest, but there is no reason to hold
	// every runtime until render.
	type cell struct {
		secs float64
		gc   int
		err  error
	}
	cells := make([]cell, len(jobs))
	eng.RunEach(jobs, func(i int, r engine.Result) {
		if r.Err != nil {
			cells[i] = cell{err: r.Err}
			return
		}
		cells[i] = cell{secs: r.Elapsed.Seconds(), gc: r.RT.GCCycles()}
	})

	headers := []string{"benchmark"}
	for _, c := range cols {
		headers = append(headers, c+" (s)", "gc")
	}
	if len(cols) > 1 {
		headers = append(headers, fmt.Sprintf("speedup %s/%s", cols[len(cols)-1], cols[0]))
	}
	t := table.New(fmt.Sprintf("Head-to-head, size %d (%d repeat(s) per cell, %d worker(s))",
		*size, *repeats, eng.Workers()), headers...)
	sums := make([]float64, len(cols)) // per collector, for the mean row
	for i, s := range specs {
		row := []any{s.Name}
		var first, last float64
		for j := range cols {
			c := cells[i*len(cols)+j]
			if c.err != nil {
				fatal(fmt.Errorf("%s under %s: %w", s.Name, cols[j], c.err))
			}
			sums[j] += c.secs
			row = append(row, fmt.Sprintf("%.3f", c.secs), c.gc)
			if j == 0 {
				first = c.secs
			}
			last = c.secs
		}
		if len(cols) > 1 {
			row = append(row, fmt.Sprintf("%.2f", stats.Speedup(last, first)))
		}
		t.Rowf(row...)
	}
	if len(specs) > 1 {
		row := []any{"mean"}
		for _, sum := range sums {
			row = append(row, fmt.Sprintf("%.3f", sum/float64(len(specs))), "")
		}
		if len(cols) > 1 {
			row = append(row, fmt.Sprintf("%.2f", stats.Speedup(sums[len(cols)-1], sums[0])))
		}
		t.Rowf(row...)
	}
	fmt.Print(t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "t100:", err)
	os.Exit(1)
}
