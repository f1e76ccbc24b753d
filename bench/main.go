// Command bench is the repo's end-to-end benchmark: it builds the
// shipped binaries (cgsweep, cgworker, cgrun, cgserve), drives them over
// four named workloads, checks every output byte against committed
// goldens, and reports what a user of each program pays — wall time,
// CPU and peak memory per operation — as medians with quartiles.
//
// A separate traced run (-trace 1) attributes a cell's time to the
// repo's modules by timing calls into their public functions from
// here; nothing inside the programs is instrumented. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                            # every workload, tracing off
//	bash bench/run.sh -workload serve_mixed      # one workload
//	bash bench/run.sh -workload sweep_default -trace 1
//	bash bench/run.sh -quick                     # the smoke test's small profile
//	bash bench/run.sh -compare a.json b.json
//
// With one -workload the last line of standard output is the result
// object BENCHMARK.json's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var workload string
	flag.StringVar(&workload, "workload", "", "run only this workload (default: all, in order)")
	flag.StringVar(&workload, "only", "", "alias of -workload")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace.json; 0 = the timed run")
	quick := flag.Bool("quick", false, "small profile: figs 4.1/4.5/4.11 and size-10 programs")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	update := flag.Bool("update-golden", false, "regenerate bench/golden from the built binaries and exit")
	rootFlag := flag.String("root", "", "repository root (default: found above the working directory)")
	outFlag := flag.String("out", "", "directory for result and trace files (default: bench/out)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	defs := workloadDefs
	if workload != "" {
		d, ok := workloadByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", workload)
			return 2
		}
		defs = []workloadDef{d}
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	prof := fullProfile
	if *quick {
		prof = quickProfile
	}
	e, err := newEnv(root, prof, *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer e.close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *update {
		err := e.build(ctx)
		if err == nil {
			err = e.updateGoldens(ctx)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	// Set-up is built several times in a timed run so that its own
	// metric is a median; the traced run reports no setup_s.
	setups := 3
	if *trace != 0 {
		setups = 1
	}
	setupTime, err := e.setup(ctx, setups)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	out := *outFlag
	if out == "" {
		out = filepath.Join(e.benchd, "out")
	}
	if err := os.MkdirAll(out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := &report{
		Provenance: obs.Capture(obs.Nanotime()),
		Commit:     commitHash(root),
		W:          e.w,
		Seed:       *seed,
		Seconds:    *seconds,
		Profile:    prof.name,
		Trace:      *trace != 0,
		Workloads:  make(map[string]*workloadResult),
	}
	failed := 0
	for _, d := range defs {
		r := newResult(d, newCalibrator(e.w))
		if *trace != 0 {
			runTraced(ctx, e, d, r, filepath.Join(out, "trace.json"))
		} else {
			d.Run(ctx, e, r)
			r.put("setup_s", setupTime)
		}
		rep.Workloads[d.Name] = r
		failed += r.OpsFailed
	}
	rep.print()

	name := "result"
	if workload != "" {
		name = workload
	}
	if *trace != 0 {
		name += "-trace"
	}
	path := filepath.Join(out, name+".json")
	data, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o666)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresult written to %s\n", path)

	if workload != "" {
		fmt.Println(contractLine(rep.Workloads[workload], *trace != 0))
	}
	if failed > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

// contractLine is the one-object result line of BENCHMARK.json's
// contract: every end-to-end metric of a timed run, every per-layer
// metric of a traced one.
func contractLine(r *workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	complete := true
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.N == 0 {
			complete = false
		}
		metrics[d.Name] = value{m.Median, d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.OpsFailed == 0 && complete && r.OpsAttempted > 0, r.OpsAttempted, r.OpsFailed, metrics})
	return string(line)
}
