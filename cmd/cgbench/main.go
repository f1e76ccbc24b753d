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
// -bench switches cgbench into micro-benchmark mode: it times one run
// of every workload analog under every collector with
// testing.Benchmark and writes a machine-readable JSON report
// (internal/benchfmt) instead of rendering figures. BENCH_seed.json at
// the repo root is such a report, recorded from the pre-slab hot path;
// -baseline diffs a fresh run against it and warns — never fails — on
// regressions past -warn-pct:
//
//	cgbench -bench BENCH.json                          # record
//	cgbench -bench /tmp/b.json -baseline BENCH_seed.json
//	cgbench -bench /tmp/b.json -bench-sizes 1 -bench-time 100ms
//
// -pooled switches the cells to the engine's pooled execution path
// (Runtime.Reset via ExecRelease) — what sweeps actually pay in steady
// state, as opposed to the default cold per-iteration construction.
// BENCH_seed_pooled.json is the committed pooled-path baseline.
// -bench-gc-every G adds a cycle-heavy variant of every cell (a full
// collection forced every G runtime operations, name suffix /gcG), and
// -bench-workloads narrows the matrix:
//
//	cgbench -bench /tmp/b.json -pooled -baseline BENCH_seed_pooled.json
//	cgbench -bench /tmp/b.json -pooled -bench-gc-every 2000 -bench-workloads jess
//
// -bench-arena switches -bench to the allocator micro-benchmark family
// (per-size-class alloc/free, churn, pinned fragmentation and mixed
// demographics, slab arena vs the first-fit SpanArena reference model;
// DESIGN.md §8). BENCH_seed_arena.json is the committed capture:
//
//	cgbench -bench /tmp/a.json -bench-arena -baseline BENCH_seed_arena.json
//
// cgbench takes no CPU profile: testing.Benchmark needs testing.Init,
// which registers -test.cpuprofile and its siblings, but no testing.M
// runs to honour them. To profile the cells the binaries serve — and to
// regenerate the cmd/*/default.pgo the builds are guided by — run
// pgo.sh at the repository root (DESIGN.md §5 "Profile-guided builds").
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/vm"
	"repro/internal/workload"
)

// printOwnFlags is fs's usage message without the -test.* flags
// testing.Init registered: nothing reads them here, and 33 of them bury
// cgbench's own 16.
func printOwnFlags(fs *flag.FlagSet) {
	own := flag.NewFlagSet(fs.Name(), flag.ContinueOnError)
	own.SetOutput(fs.Output())
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			own.Var(f.Value, f.Name, f.Usage)
			own.Lookup(f.Name).DefValue = f.DefValue
		}
	})
	fmt.Fprintf(own.Output(), "Usage of %s:\n", own.Name())
	own.PrintDefaults()
}

func main() {
	fig := flag.String("fig", "", "regenerate a single figure (e.g. 4.1, 4.5, A.2)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	skipTiming := flag.Bool("skip-timing", false, "skip the wall-clock experiments (4.7, 4.8, 4.10, 4.12, A.5-A.7)")
	skipLarge := flag.Bool("skip-large", false, "skip the size-100 sweeps (4.4, 4.9, 4.10 large column, A.4, A.7)")
	benchOut := flag.String("bench", "", "run the Workload micro-benchmarks and write a JSON report to this path (skips figure rendering)")
	benchTime := flag.Duration("bench-time", 300*time.Millisecond, "per-benchmark measurement budget for -bench")
	benchSizes := flag.String("bench-sizes", "1,10", "comma-separated workload sizes for -bench")
	benchCols := flag.String("bench-collectors", "cg,cg+recycle,msa,gen", "comma-separated collector specs for -bench")
	benchWLs := flag.String("bench-workloads", "", "comma-separated workload names for -bench (empty = all)")
	benchGCEvery := flag.Uint64("bench-gc-every", 0,
		"also time a cycle-heavy /gcN variant of every -bench cell (full collection every N runtime ops; 0 = off)")
	pooled := flag.Bool("pooled", false,
		"time the engine's pooled execution path (Runtime.Reset steady state) instead of cold per-iteration construction; cells are named Workload-pooled/...")
	benchArena := flag.Bool("bench-arena", false,
		"with -bench, time the arena alloc/free/churn micro-benchmark family (slab arena vs the first-fit reference model) instead of the Workload family")
	benchTape := flag.Bool("bench-tape", false,
		"with -bench, time the event-tape family instead: each cell driven normally, driven while recording, and replayed from its tape (drive/record/replay variants; DESIGN.md §12)")
	baseline := flag.String("baseline", "", "baseline report to compare the -bench run against")
	warnPct := flag.Float64("warn-pct", 15, "ns/op regression percentage that triggers a warning under -baseline")
	testing.Init()
	flag.Usage = func() { printOwnFlags(flag.CommandLine) }
	flag.Parse()

	if *benchOut != "" {
		cfg := benchConfig{
			out:       *benchOut,
			benchTime: *benchTime,
			sizesCSV:  *benchSizes,
			colsCSV:   *benchCols,
			wlsCSV:    *benchWLs,
			gcEvery:   *benchGCEvery,
			pooled:    *pooled,
			baseline:  *baseline,
			warnPct:   *warnPct,
		}
		run := runBenchMode
		if *benchArena {
			run = runArenaBenchMode
		}
		if *benchTape {
			run = runTapeBenchMode
		}
		if err := run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "cgbench:", err)
			os.Exit(2)
		}
		return
	}

	eng := timingEngine(*workers)

	// timed renders a wall-clock figure: one failed cell fails the
	// figure with its one "sweep <id>: ..." line.
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
		{"4.13", false, false, func() string { return experiments.Fig413(eng).String() }},
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

// benchConfig collects the -bench mode knobs.
type benchConfig struct {
	out       string
	benchTime time.Duration
	sizesCSV  string
	colsCSV   string
	wlsCSV    string
	gcEvery   uint64
	pooled    bool
	baseline  string
	warnPct   float64
}

// timingEngine builds the engine behind the figures. The wall-clock
// ones (4.7, 4.8, 4.10, 4.12, A.5–A.7) print Result.Elapsed as the time
// a program takes under a collector, so no cell may be served by
// replaying a tape: the cache is off, and every cell drives.
func timingEngine(workers int) *engine.Engine {
	return engine.New(workers).SetTapeCache(false)
}

// runBenchMode times one run of every (workload, collector, size) cell
// with testing.Benchmark — the same loop body as bench_test.go's
// BenchmarkWorkload / BenchmarkWorkloadPooled, so the JSON report and
// `go test -bench Workload` measure the identical thing — writes the
// report to out, and optionally warns against a baseline. Regressions
// never fail the run: benchmark noise on shared CI hosts would make a
// hard gate flaky, so the job surfaces WARN lines and humans (or the
// PR diff) decide.
//
// The default family constructs a fresh heap and runtime per iteration
// (the cold path a standalone run pays); -pooled instead drives the
// cell through a persistent engine's ExecRelease, so after the first
// iteration every run starts from Runtime.Reset on a pooled shard —
// the steady state a store-backed sweep pays per cell. -bench-gc-every
// appends a /gcN variant of each cell with a full collection forced
// every N runtime operations: those cells spend their time in the
// collection cycle itself rather than the mutator event path.
// setBenchTime points testing.Benchmark's measurement budget at the
// -bench-time value; both benchmark families go through it.
func setBenchTime(d time.Duration) error {
	return flag.Set("test.benchtime", d.String())
}

// warnAgainstBaseline diffs report against cfg.baseline (when set) and
// prints WARN lines for regressions past cfg.warnPct. Regressions never
// fail the run: benchmark noise on shared CI hosts would make a hard
// gate flaky, so the job surfaces WARN lines and humans (or the PR
// diff) decide.
func warnAgainstBaseline(cfg benchConfig, report *benchfmt.Report) error {
	if cfg.baseline == "" {
		return nil
	}
	base, err := benchfmt.ReadFile(cfg.baseline)
	if err != nil {
		return err
	}
	deltas := benchfmt.Compare(base, report)
	regs := benchfmt.Regressions(deltas, cfg.warnPct)
	for _, d := range regs {
		fmt.Fprintf(os.Stderr, "WARN: %s regressed %.1f%% (%.0f -> %.0f ns/op)\n",
			d.Name, d.Pct, d.Base, d.Cur)
	}
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "cgbench: no benchmark regressed more than %.0f%% vs %s (%d compared)\n",
			cfg.warnPct, cfg.baseline, len(deltas))
	}
	return nil
}

func runBenchMode(cfg benchConfig) error {
	if err := setBenchTime(cfg.benchTime); err != nil {
		return err
	}
	var sizes []int
	for _, s := range strings.Split(cfg.sizesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -bench-sizes entry %q", s)
		}
		sizes = append(sizes, n)
	}
	wls := workload.All()
	if cfg.wlsCSV != "" {
		var picked []workload.Spec
		for _, name := range strings.Split(cfg.wlsCSV, ",") {
			spec, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			picked = append(picked, spec)
		}
		wls = picked
	}
	gcVariants := []uint64{0}
	if cfg.gcEvery > 0 {
		gcVariants = append(gcVariants, cfg.gcEvery)
	}
	family := "Workload"
	if cfg.pooled {
		family = "Workload-pooled"
	}
	// One single-worker engine for the whole pooled family: its shard
	// pool is what turns per-iteration construction into Reset.
	eng := engine.New(1)
	report := benchfmt.NewReport(cfg.benchTime)
	for _, spec := range wls {
		for _, col := range strings.Split(cfg.colsCSV, ",") {
			col = strings.TrimSpace(col)
			mk, err := collectors.Parse(col)
			if err != nil {
				return err
			}
			for _, size := range sizes {
				for _, gc := range gcVariants {
					spec, size, gc := spec, size, gc
					var r testing.BenchmarkResult
					if cfg.pooled {
						job := engine.Job{
							Workload:  spec.Name,
							Size:      size,
							Collector: col,
							HeapBytes: engine.TightHeap,
							GCEvery:   gc,
						}
						r = testing.Benchmark(func(b *testing.B) {
							b.ReportAllocs()
							check := func(r engine.Result) {
								if r.Err != nil {
									b.Fatal(r.Err)
								}
							}
							// Warm the shard pool so iteration 1 is not
							// the one cold construction of the family.
							eng.ExecRelease(job, check)
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								eng.ExecRelease(job, check)
							}
						})
					} else {
						r = testing.Benchmark(func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								ev := mk()
								ev.GCEvery = gc
								rt := vm.New(heap.New(spec.HeapBytes(size)), ev)
								spec.Run(rt, size)
							}
						})
					}
					name := fmt.Sprintf("%s/%s/%s/size%d", family, spec.Name, col, size)
					if gc > 0 {
						name = fmt.Sprintf("%s/gc%d", name, gc)
					}
					report.Add(benchfmt.Entry{
						Name:        name,
						Iters:       r.N,
						NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
						BytesPerOp:  r.AllocedBytesPerOp(),
						AllocsPerOp: r.AllocsPerOp(),
					})
					fmt.Fprintf(os.Stderr, "%-52s %12.0f ns/op %10d B/op %8d allocs/op\n",
						name, report.Benchmarks[len(report.Benchmarks)-1].NsPerOp,
						r.AllocedBytesPerOp(), r.AllocsPerOp())
				}
			}
		}
	}
	if err := report.WriteFile(cfg.out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cgbench: wrote %d benchmarks to %s\n", len(report.Benchmarks), cfg.out)
	return warnAgainstBaseline(cfg, report)
}
