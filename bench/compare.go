package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints, per (workload, metric) present in both result
// files, both medians, their relative difference, the metric's bound
// and whether the inter-quartile ranges overlap. It returns non-zero if
// a bounded metric differs by more than its bound in either direction,
// if an exact count differs at all, or if either file has failed
// operations.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b *report
		if b, err = loadReport(pathB); err == nil {
			return compareReports(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareReports(w io.Writer, a, b *report) int {
	if a.Provenance.CPU != b.Provenance.CPU || a.W != b.W || a.Profile != b.Profile || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: the runs differ in host or settings (cpu %q vs %q, W %d vs %d, profile %s vs %s, seconds %g vs %g)\n",
			a.Provenance.CPU, b.Provenance.CPU, a.W, b.W, a.Profile, b.Profile, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-18s %-26s %-6s %13s %13s %8s %6s %5s  %s\n",
		"workload", "metric", "unit", "a median", "b median", "diff", "bound", "iqr", "verdict")
	bad := 0
	var names []string
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, wn := range names {
		wa, wb := a.Workloads[wn], b.Workloads[wn]
		if wa.OpsFailed+wb.OpsFailed > 0 {
			fmt.Fprintf(w, "%-18s failed operations: a %d, b %d\n", wn, wa.OpsFailed, wb.OpsFailed)
			bad++
		}
		if ca, cb := wa.Metrics["calib_s"].Median, wb.Metrics["calib_s"].Median; ca > 0 && math.Abs(cb-ca)/ca > 0.10 {
			fmt.Fprintf(w, "%-18s note: the reference loop took %+.0f%% in b against a — the host's speed changed between the runs; scaling corrects user-space time, kernel-bound operations less\n",
				wn, (cb-ca)/ca*100)
		}
		var ms []string
		for n := range wa.Metrics {
			if _, ok := wb.Metrics[n]; ok {
				ms = append(ms, n)
			}
		}
		sort.Strings(ms)
		for _, mn := range ms {
			ma, mb := wa.Metrics[mn], wb.Metrics[mn]
			diff := 0.0
			if ma.Median != 0 {
				diff = (mb.Median - ma.Median) / math.Abs(ma.Median)
			}
			overlap := "yes"
			if ma.Q3 < mb.Q1 || mb.Q3 < ma.Q1 {
				overlap = "no"
			}
			bound, verdict := "-", ""
			switch {
			case ma.Exact:
				if ma.Median != mb.Median {
					verdict = "DIFFERS (exact count)"
					bad++
				}
			case ma.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", ma.Bound*100)
				if math.Abs(diff) > ma.Bound {
					if (diff > 0) == (ma.Better == "lower") {
						verdict = "WORSE beyond bound"
					} else {
						verdict = "BETTER beyond bound"
					}
					bad++
				}
			}
			fmt.Fprintf(w, "%-18s %-26s %-6s %13.6g %13.6g %+7.1f%% %6s %5s  %s\n",
				wn, mn, ma.Unit, ma.Median, mb.Median, diff*100, bound, overlap, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d comparisons outside their bounds\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every bounded metric agrees within its bound; every exact count repeats")
	return 0
}
