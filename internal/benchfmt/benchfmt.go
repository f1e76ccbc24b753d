// Package benchfmt defines the machine-readable benchmark report that
// anchors the repo's performance claims: cmd/cgbench -bench emits it,
// BENCH_seed.json at the repo root is the committed baseline, and the
// CI bench-smoke job diffs a fresh run against that baseline with
// Compare. The format is deliberately tiny — one entry per benchmark
// with the three numbers testing.Benchmark reports — so any tool (jq,
// benchstat after a trivial transform, a spreadsheet) can consume it.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// Entry is one benchmark measurement.
type Entry struct {
	// Name is the benchmark path without the "Benchmark" prefix,
	// e.g. "Workload/compress/cg/size1".
	Name string `json:"name"`
	// Iters is how many iterations the measurement averaged over.
	Iters int `json:"iters"`
	// NsPerOp is the mean wall time per iteration in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the allocation counters.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Report is a benchmark run with enough provenance to judge whether
// two reports are comparable (same host class, same measurement time).
type Report struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	BenchTime  string  `json:"bench_time"`
	Benchmarks []Entry `json:"benchmarks"`
}

// NewReport returns a report stamped with this process's provenance.
func NewReport(benchTime time.Duration) *Report {
	return &Report{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		BenchTime: benchTime.String(),
	}
}

// Add appends one measurement.
func (r *Report) Add(e Entry) { r.Benchmarks = append(r.Benchmarks, e) }

// Write encodes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path atomically enough for our use
// (single writer).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a report written by Write.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return &r, nil
}

// Delta is one baseline-vs-current comparison.
type Delta struct {
	Name string
	// Base and Cur are ns/op; Pct is (Cur-Base)/Base*100, so positive
	// means a regression (slower than the baseline).
	Base, Cur float64
	Pct       float64
}

// Compare matches benchmarks by name and reports every pair, sorted by
// descending regression percentage. Benchmarks present in only one
// report are skipped: the baseline may predate a new workload, and a
// short CI run may measure a subset of the committed matrix.
func Compare(base, cur *Report) []Delta {
	byName := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		byName[e.Name] = e
	}
	var out []Delta
	for _, e := range cur.Benchmarks {
		b, ok := byName[e.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		out = append(out, Delta{
			Name: e.Name,
			Base: b.NsPerOp,
			Cur:  e.NsPerOp,
			Pct:  (e.NsPerOp - b.NsPerOp) / b.NsPerOp * 100,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pct > out[j].Pct })
	return out
}

// Regressions filters deltas slower than thresholdPct.
func Regressions(deltas []Delta, thresholdPct float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Pct > thresholdPct {
			out = append(out, d)
		}
	}
	return out
}
