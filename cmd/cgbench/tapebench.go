package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// runTapeBenchMode times the three ways a (workload, size) cell can be
// driven — the per-cell win the engine's tape cache banks on:
//
//	Tape/<wl>/<col>/sizeN/drive    the workload analog's driver logic
//	Tape/<wl>/<col>/sizeN/record   the same, with a Recorder attached
//	                               (what a cache miss pays over drive)
//	Tape/<wl>/<col>/sizeN/replay   the recorded tape through a Replayer
//	                               (what every cache hit pays instead)
//
// All three variants run on one persistent runtime via Reset — the
// pooled steady state — so the spread between drive and replay is pure
// driver overhead: RNG draws, workload bookkeeping, closure dispatch.
// The replayed runtime state is bit-identical to the driven one (the
// equivalence tests pin that), so replay is a legitimate stand-in, not
// an approximation. Workloads default to the driver-heavy trio the
// tape cache targets first (compress, jack, db); -bench-workloads and
// -bench-collectors reshape the grid, with the first collector spec
// taken (one collector — the variants compare against each other).
// BENCH_seed_tape.json is the committed capture.
func runTapeBenchMode(cfg benchConfig) error {
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
	wlsCSV := cfg.wlsCSV
	if wlsCSV == "" {
		wlsCSV = "compress,jack,db"
	}
	var wls []workload.Spec
	for _, name := range strings.Split(wlsCSV, ",") {
		spec, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		wls = append(wls, spec)
	}
	col := strings.TrimSpace(strings.Split(cfg.colsCSV, ",")[0])
	mk, err := collectors.Parse(col)
	if err != nil {
		return err
	}

	report := benchfmt.NewReport(cfg.benchTime)
	add := func(name string, r testing.BenchmarkResult) {
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

	for _, spec := range wls {
		for _, size := range sizes {
			spec, size := spec, size
			hb := spec.HeapBytes(size)
			rt := vm.New(heap.New(hb), mk())
			reset := func() { rt.Reset(mk()) }

			// Record the cell's tape once, outside any timing window;
			// the replay variant re-drives it every iteration.
			reset()
			meta := tape.Meta{Workload: spec.Name, Size: size,
				Threads: spec.Threads(size), HeapBytes: hb}
			rec := tape.NewRecorder(rt, meta)
			spec.Run(rt, size)
			t := rec.Finish()
			rp := tape.NewReplayer(t)

			prefix := fmt.Sprintf("Tape/%s/%s/size%d", spec.Name, col, size)
			add(prefix+"/drive", testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					reset()
					spec.Run(rt, size)
				}
			}))
			add(prefix+"/record", testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					reset()
					r := tape.NewRecorder(rt, meta)
					spec.Run(rt, size)
					r.Finish()
				}
			}))
			add(prefix+"/replay", testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					reset()
					if err := rp.Run(rt); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}
	if err := report.WriteFile(cfg.out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cgbench: wrote %d benchmarks to %s\n", len(report.Benchmarks), cfg.out)
	return warnAgainstBaseline(cfg, report)
}
