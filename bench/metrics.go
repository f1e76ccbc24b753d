package main

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// metricDef names one metric, its unit, which way is better and — for
// the bounded ones — the share of the median by which it may worsen
// before a change counts as a regression.
type metricDef struct {
	Name     string
	Unit     string
	Better   string  // "lower" | "higher"
	Bound    float64 // 0 = no bound (layer metrics)
	Workload string  // the one workload that reports it; "" = every workload
	Exact    bool    // a count that must repeat exactly between runs
}

// endToEnd are the metrics every workload reports, and the ones
// BENCHMARK.json gates on: what a user of the workload's program pays
// for one operation of it. What "one operation" is, per workload, is in
// workloadDefs. Times are seconds at the reference host speed (calib.go).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// detail are the per-workload end-to-end metrics under the names the
// issue fixed for later changes to quote. They are printed, stored and
// compared like the gated ones; BENCHMARK.json cannot list them because
// its contract wants every end-to-end metric from every workload. The
// issue hoped for 7–10 % bounds; on the dev host the medians of ten runs
// of one commit spread by 3–13 % even at the reference speed, so times
// carry the contract's widest bound and only the steadier memory and
// ratio metrics keep 10 %.
var detail = []metricDef{
	// What the scaling started from, so the measured seconds can be read
	// back: the unscaled wall_s and the reference loop's own time.
	{Name: "wall_raw_s", Unit: "s", Better: "lower"},
	{Name: "calib_s", Unit: "s", Better: "lower"},
	// CPU of the program under test per operation, descendants included
	// (user + system, at the reference speed): reported and compared, not
	// gated — it moves with wall_s, so gating it would only double the
	// exposure to the host's drift.
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sweep_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Workload: "sweep_default"},
	{Name: "sweep_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10, Workload: "sweep_default"},
	{Name: "procs_cold_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Workload: "sweep_procs_store"},
	{Name: "procs_resume_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: "sweep_procs_store"},
	{Name: "run_s.cg", Unit: "s", Better: "lower", Bound: 0.25, Workload: "collector_matrix"},
	{Name: "run_s.cg_recycle", Unit: "s", Better: "lower", Bound: 0.25, Workload: "collector_matrix"},
	{Name: "run_s.msa", Unit: "s", Better: "lower", Bound: 0.25, Workload: "collector_matrix"},
	{Name: "run_s.gen", Unit: "s", Better: "lower", Bound: 0.25, Workload: "collector_matrix"},
	{Name: "cg_vs_msa_speedup", Unit: "ratio", Better: "higher", Bound: 0.10, Workload: "collector_matrix"},
	{Name: "serve_cold_figs_s", Unit: "s", Better: "lower", Bound: 0.25, Workload: "serve_mixed"},
	{Name: "serve_cold_matrix_s", Unit: "s", Better: "lower", Bound: 0.25, Workload: "serve_mixed"},
	{Name: "serve_warm_sweep_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: "serve_mixed"},
	{Name: "serve_cell_get_us", Unit: "us", Better: "lower", Bound: 0.25, Workload: "serve_mixed"},
	// Tails of the warm loop: reported, never gated on a shared VM.
	{Name: "serve_warm_sweep_tail_ms", Unit: "ms", Better: "lower", Workload: "serve_mixed"},
	{Name: "serve_cell_get_tail_us", Unit: "us", Better: "lower", Workload: "serve_mixed"},
	{Name: "serve_cell_304_us", Unit: "us", Better: "lower", Workload: "serve_mixed"},
}

func defsByName(lists ...[]metricDef) map[string]metricDef {
	m := make(map[string]metricDef)
	for _, l := range lists {
		for _, d := range l {
			m[d.Name] = d
		}
	}
	return m
}

var allDefs = defsByName(endToEnd, detail, perLayer)

// metricValue is one reported metric.
type metricValue struct {
	Unit string `json:"unit"`
	summary
	// Tail names the percentile behind a *_tail_* metric: the highest
	// one with at least ten samples beyond it.
	Tail   float64 `json:"tail_percentile,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	Better string  `json:"better,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

// workloadResult is what one workload's run reports.
type workloadResult struct {
	Operation    string                 `json:"operation"`
	Why          string                 `json:"why"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Failures     []string               `json:"failures,omitempty"`
	Reps         int                    `json:"repetitions"`
	Metrics      map[string]metricValue `json:"metrics"`
	Children     []child                `json:"children,omitempty"`

	calib *calibrator // sampled while the workload runs
}

func newResult(d workloadDef, c *calibrator) *workloadResult {
	return &workloadResult{Operation: d.Op, Why: d.Why, Metrics: make(map[string]metricValue), calib: c}
}

// putTime reports a measured duration scaled to the reference host
// speed by the calibration samples taken during the run.
func (r *workloadResult) putTime(name string, s summary) { r.put(name, r.calib.scale(s)) }

// maxChildren bounds the per-child usage list of a result file.
const maxChildren = 128

func (r *workloadResult) addChild(c child) {
	if len(r.Children) < maxChildren {
		r.Children = append(r.Children, c)
	}
}

func (r *workloadResult) put(name string, s summary) {
	d, ok := allDefs[name]
	if !ok {
		panic("bench: undefined metric " + name)
	}
	r.Metrics[name] = metricValue{Unit: d.Unit, summary: s, Bound: d.Bound, Better: d.Better, Exact: d.Exact}
}

// putValue reports a single measured value (n = 1).
func (r *workloadResult) putValue(name string, v float64) {
	r.put(name, summary{Median: v, Q1: v, Q3: v, N: 1})
}

func (r *workloadResult) putTail(name string, xs []float64) {
	p := tailPercentile(len(xs))
	v := percentile(xs, p)
	r.put(name, summary{Median: v, Q1: v, Q3: v, N: len(xs)})
	mv := r.Metrics[name]
	mv.Tail = p
	r.Metrics[name] = mv
}

func (r *workloadResult) addOps(o *ops) {
	r.OpsAttempted += o.attempted
	r.OpsFailed += o.failed
	r.Failures = append(r.Failures, o.msgs...)
}

// report is the result file: every workload's metrics with the
// provenance needed to compare two of them honestly.
type report struct {
	Provenance obs.Provenance             `json:"provenance"`
	Commit     string                     `json:"commit"`
	W          int                        `json:"w"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Profile    string                     `json:"profile"`
	Trace      bool                       `json:"trace"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// print writes every metric by name with its unit, median, quartiles,
// sample count and bound, workload by workload.
func (rep *report) print() {
	names := make([]string, 0, len(rep.Workloads))
	for n := range rep.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wn := range names {
		r := rep.Workloads[wn]
		fmt.Printf("\n== %s: %d repetitions, ops_attempted %d, ops_failed %d\n   one operation: %s\n",
			wn, r.Reps, r.OpsAttempted, r.OpsFailed, r.Operation)
		for _, f := range r.Failures {
			fmt.Printf("   FAILED: %s\n", f)
		}
		fmt.Printf("%-28s %-6s %14s %14s %14s %7s %6s\n", "metric", "unit", "median", "q1", "q3", "n", "bound")
		ms := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			ms = append(ms, n)
		}
		sort.Strings(ms)
		for _, mn := range ms {
			m := r.Metrics[mn]
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			}
			label := mn
			if m.Tail > 0 {
				label = fmt.Sprintf("%s (p%g)", mn, m.Tail)
			}
			fmt.Printf("%-28s %-6s %14.6g %14.6g %14.6g %7d %6s\n", label, m.Unit, m.Median, m.Q1, m.Q3, m.N, bound)
		}
	}
}
