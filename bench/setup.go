package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/results"
)

// programs are the binaries under test, built once per set-up.
var programs = []string{"cgsweep", "cgworker", "cgrun", "cgserve"}

// matrixPrograms are the collector matrix's rows. jess is left out: at
// size 100 it runs out of memory under msa, gen and cg+recycle at its
// own tight budget (see README, known exclusions).
var matrixPrograms = []string{"compress", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack"}

// matrixCollectors are the columns of the cgrun matrix; cellsCollectors
// are the columns of the Cells matrix POSTed to the server.
var (
	matrixCollectors = []string{"cg", "cg+recycle", "msa", "gen"}
	cellsCollectors  = []string{"cg+recycle", "cg+packed", "msa", "gen"}
)

// profile sizes a run. The full profile is the benchmark; quick is the
// smoke test's (three small figures, size-10 programs).
type profile struct {
	name string
	figs []string // nil = every demographic figure
	size int      // problem size of the collector and Cells matrices
}

var (
	fullProfile  = profile{name: "full", size: 100}
	quickProfile = profile{name: "quick", figs: []string{"4.1", "4.5", "4.11"}, size: 10}
)

// env is everything a run needs: where the repo and the binaries are,
// the scratch directory, and the generated inputs' parameters.
type env struct {
	root    string // repository root
	benchd  string // this package's directory
	scratch string // temporary directory, removed on exit
	bin     string // directory of the built binaries
	w       int    // W = min(nproc, 4): GOMAXPROCS of every child
	seed    int64
	seconds time.Duration
	prof    profile

	figs []experiments.SweepFig
	jobs []engine.Job // the grid's cells, figure by figure
	keys []string     // the grid's distinct results.Keys, first-seen order
	gold goldens
}

// goldens are the committed expected outputs.
type goldens struct {
	sweep []byte            // cgsweep stdout for the profile's figures
	cgrun map[string]string // "program/collector" -> cgrun stdout
	cells map[string]string // results.Key -> reduced outcome JSON
}

func findRoot(flagRoot string) (string, error) {
	dir := flagRoot
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "cgsweep", "main.go")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("bench: no repository root (cmd/cgsweep) at or above %s", dir)
		}
	}
}

func newEnv(root string, prof profile, seed int64, seconds time.Duration) (*env, error) {
	e := &env{root: root, benchd: filepath.Join(root, "bench"), seed: seed, seconds: seconds, prof: prof}
	e.w = min(runtime.NumCPU(), 4)
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o777); err != nil {
		return nil, err
	}
	var err error
	if e.scratch, err = os.MkdirTemp(base, "run-*"); err != nil {
		return nil, err
	}
	if e.figs, err = experiments.DemographicFigs(prof.figs...); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, f := range e.figs {
		for _, job := range f.Jobs {
			key, err := results.Key(job)
			if err != nil {
				return nil, err
			}
			e.jobs = append(e.jobs, job)
			if !seen[key] {
				seen[key] = true
				e.keys = append(e.keys, key)
			}
		}
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// procs is P = min(W, 2), the worker-process count of the -procs runs.
func (e *env) procs() int { return min(e.w, 2) }

// clients is the closed-loop client count of the server workloads.
func (e *env) clients() int { return min(e.w, 2) }

// setup builds the binaries and checks the goldens against the repo's
// own reviewed ones, n times into fresh directories, and returns each
// rounds' duration at the reference host speed. The last build is the
// one the run uses.
func (e *env) setup(ctx context.Context, n int) (summary, error) {
	var times []float64
	calib := newCalibrator(e.w)
	calib.sample()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := e.build(ctx); err != nil {
			return summary{}, err
		}
		if err := e.loadGoldens(); err != nil {
			return summary{}, err
		}
		times = append(times, time.Since(start).Seconds())
		calib.sample()
	}
	return calib.scale(summarize(times)), nil
}

// build compiles the programs under test into a fresh directory, which
// replaces e.bin.
func (e *env) build(ctx context.Context) error {
	dir, err := os.MkdirTemp(e.scratch, "bin-*")
	if err != nil {
		return err
	}
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	if e.bin != "" {
		os.RemoveAll(e.bin)
	}
	e.bin = dir
	return nil
}

func (e *env) goldenPath(name string) string { return filepath.Join(e.benchd, "golden", name) }

// loadGoldens reads the committed goldens and verifies the sweep golden
// against internal/experiments/testdata: the reference is the repo's
// reviewed goldens, not this run.
func (e *env) loadGoldens() error {
	ref, err := os.ReadFile(filepath.Join(e.root, "internal", "experiments", "testdata", "sweep_4_1_4_5_4_11.golden"))
	if err != nil {
		return err
	}
	if e.prof.name == "quick" {
		e.gold.sweep = ref
	} else {
		if e.gold.sweep, err = os.ReadFile(e.goldenPath("sweep_default.txt")); err != nil {
			return err
		}
		if got := sweepSections(e.gold.sweep, "Fig 4.1:", "Fig 4.5:", "Fig 4.11:"); !bytes.Equal(got, ref) {
			return fmt.Errorf("bench: golden/sweep_default.txt disagrees with internal/experiments/testdata/sweep_4_1_4_5_4_11.golden")
		}
	}
	data, err := os.ReadFile(e.goldenPath("matrix.json"))
	if err != nil {
		return err
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("bench: golden/matrix.json: %w", err)
	}
	e.gold.cgrun = all[fmt.Sprintf("cgrun/%d", e.prof.size)]
	e.gold.cells = all[fmt.Sprintf("cells/%d", e.prof.size)]
	if len(e.gold.cgrun) != len(matrixPrograms)*len(matrixCollectors) || len(e.gold.cells) != len(matrixPrograms)*len(cellsCollectors) {
		return fmt.Errorf("bench: golden/matrix.json is incomplete for size %d (run -update-golden)", e.prof.size)
	}
	return nil
}

// sweepSections extracts the named figures' tables from a cgsweep
// stream and joins them the way cgsweep would have printed only them.
func sweepSections(stream []byte, titles ...string) []byte {
	var out [][]byte
	for _, sec := range bytes.Split(stream, []byte("\n\n")) {
		for _, t := range titles {
			if bytes.HasPrefix(sec, []byte(t)) {
				out = append(out, bytes.TrimRight(sec, "\n"))
			}
		}
	}
	return append(bytes.Join(out, []byte("\n\n")), '\n')
}

// cellGolden is the deterministic part of an outcome: what the Cells
// matrix golden pins (not elapsed time, provenance or pause timings).
type cellGolden struct {
	Job      engine.Job      `json:"job"`
	GCCycles int             `json:"gc_cycles"`
	Instr    uint64          `json:"instr"`
	Payload  results.Payload `json:"payload"`
}

func reduceOutcome(o results.Outcome) string {
	b, _ := json.Marshal(cellGolden{Job: o.Job, GCCycles: o.GCCycles, Instr: o.Instr, Payload: o.Payload})
	return string(b)
}

// matrixJobs lists the Cells matrix: every matrix program at the
// profile's size under each cellsCollector at its own tight heap.
func (e *env) matrixJobs() []engine.Job {
	var jobs []engine.Job
	for _, p := range matrixPrograms {
		for _, c := range cellsCollectors {
			jobs = append(jobs, engine.Job{Workload: p, Size: e.prof.size, Collector: c, HeapBytes: engine.TightHeap})
		}
	}
	return jobs
}

// updateGoldens regenerates the committed goldens from the built
// binaries (cgsweep, cgrun) and from engine.Exec in this process (the
// Cells matrix — a different path from the server that is checked
// against it).
func (e *env) updateGoldens(ctx context.Context) error {
	sw := e.run(ctx, time.Minute, "cgsweep")
	if sw.err != nil {
		return sw.err
	}
	if err := os.WriteFile(e.goldenPath("sweep_default.txt"), sw.stdout, 0o666); err != nil {
		return err
	}
	all := make(map[string]map[string]string)
	for _, prof := range []profile{fullProfile, quickProfile} {
		cgrun, cells := make(map[string]string), make(map[string]string)
		for _, p := range matrixPrograms {
			for _, c := range matrixCollectors {
				r := e.run(ctx, time.Minute, "cgrun", cgrunArgs(p, prof.size, c)...)
				if r.err != nil {
					return fmt.Errorf("cgrun %s/%d %s: %w", p, prof.size, c, r.err)
				}
				cgrun[p+"/"+c] = string(r.stdout)
			}
		}
		pe := *e
		pe.prof = prof
		for _, job := range pe.matrixJobs() {
			o := results.Extract(engine.Exec(job))
			if err := o.Failed(); err != nil {
				return err
			}
			key, _ := results.Key(job)
			cells[key] = reduceOutcome(o)
		}
		all[fmt.Sprintf("cgrun/%d", prof.size)] = cgrun
		all[fmt.Sprintf("cells/%d", prof.size)] = cells
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.goldenPath("matrix.json"), append(data, '\n'), 0o666)
}

func cgrunArgs(program string, size int, collector string) []string {
	return []string{"-workload", program, "-size", fmt.Sprint(size), "-collector", collector, "-workers", "1"}
}

// commitHash names the measured commit when the checkout is a git
// repository; the driver's checkout is not.
func commitHash(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
