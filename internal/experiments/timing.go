package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

// Repeats is the number of timing runs per configuration; the thesis
// reports five (Appendix A.5-A.7).
const Repeats = 5

// averagingReps is the number of back-to-back executions one timing job
// averages over. Small sizes finish in well under a millisecond, so a
// single execution would be dominated by scheduler jitter.
func averagingReps(size int) int {
	switch size {
	case 1:
		return 20
	case 10:
		return 3
	}
	return 1
}

// timings runs every benchmark Repeats times under two collector specs
// on the engine and returns the per-benchmark duration series. Jobs for
// the two systems are interleaved (a, b, a, b, ...) so that with more
// than one worker both systems face the same mix of concurrent
// neighbours: absolute numbers still include scheduling contention, but
// it cancels in the speedup columns. For paper-grade absolute timings
// run -workers 1. A cell that fails (a workload the tight heap cannot
// hold) fails figure fig with the first such error, in job order, worded
// as the demographic sweep words its own: "sweep <fig>: ...".
func timings(eng *engine.Engine, fig string, specs []workload.Spec, size int, a, b string) (as, bs [][]time.Duration, err error) {
	reps := averagingReps(size)
	jobs := make([]engine.Job, 0, 2*len(specs)*Repeats)
	for _, s := range specs {
		for r := 0; r < Repeats; r++ {
			for _, col := range []string{a, b} {
				jobs = append(jobs, engine.Job{Workload: s.Name, Size: size,
					Collector: col, HeapBytes: engine.TightHeap, Repeats: reps})
			}
		}
	}
	els := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	eng.RunEach(jobs, func(i int, r engine.Result) {
		els[i], errs[i] = r.Elapsed, r.Err
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("sweep %s: %w", fig, err)
		}
	}
	for i := range specs {
		sa := make([]time.Duration, Repeats)
		sb := make([]time.Duration, Repeats)
		for r := 0; r < Repeats; r++ {
			sa[r], sb[r] = els[(i*Repeats+r)*2], els[(i*Repeats+r)*2+1]
		}
		as = append(as, sa)
		bs = append(bs, sb)
	}
	return as, bs, nil
}

// Fig47_48 reproduces Figures 4.7 (size 1) and 4.8 (size 10): mean wall
// time of the CG system versus the base (traditional-collector-only)
// system, with the speedup of CG over the base in the rightmost column.
func Fig47_48(eng *engine.Engine, size int) (*table.Table, error) {
	fig := "4.7"
	if size == 10 {
		fig = "4.8"
	}
	t := table.New(fmt.Sprintf("Fig %s: timing results, size %d (mean of %d runs, seconds)", fig, size, Repeats),
		"benchmark", "CG", "base", "speedup")
	specs := workload.All()
	cg, base, err := timings(eng, fig, specs, size, "cg", "msa")
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		cs, bs := stats.SummarizeDurations(cg[i]), stats.SummarizeDurations(base[i])
		t.Rowf(s.Name, fmt.Sprintf("%.4f", cs.Mean), fmt.Sprintf("%.4f", bs.Mean),
			fmt.Sprintf("%.2f", stats.Speedup(bs.Mean, cs.Mean)))
	}
	return t, nil
}

// Fig410 reproduces Figure 4.10: the speedup of the CG system over the
// base system across all three problem sizes.
func Fig410(eng *engine.Engine, sizes []int) (*table.Table, error) {
	headers := []string{"benchmark"}
	for _, sz := range sizes {
		headers = append(headers, fmt.Sprintf("size %d", sz))
	}
	t := table.New("Fig 4.10: speedup of the CG system over the base system", headers...)
	specs := workload.All()
	rows := make([][]any, len(specs))
	for i, s := range specs {
		rows[i] = []any{s.Name}
	}
	for _, sz := range sizes {
		cg, base, err := timings(eng, "4.10", specs, sz, "cg", "msa")
		if err != nil {
			return nil, err
		}
		for i := range specs {
			rows[i] = append(rows[i], fmt.Sprintf("%.2f",
				stats.Speedup(stats.SummarizeDurations(base[i]).Mean, stats.SummarizeDurations(cg[i]).Mean)))
		}
	}
	for _, row := range rows {
		t.Rowf(row...)
	}
	return t, nil
}

// Fig412 reproduces Figure 4.12: CG with and without §3.7 recycling,
// small runs.
func Fig412(eng *engine.Engine) (*table.Table, error) {
	t := table.New(fmt.Sprintf("Fig 4.12: recycle timing, small runs (mean of %d runs, seconds)", Repeats),
		"benchmark", "CG", "CG with recycling", "speedup using recycling")
	specs := workload.All()
	plain, rec, err := timings(eng, "4.12", specs, 1, "cg", "cg+recycle")
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		ps, rs := stats.SummarizeDurations(plain[i]), stats.SummarizeDurations(rec[i])
		t.Rowf(s.Name, fmt.Sprintf("%.4f", ps.Mean), fmt.Sprintf("%.4f", rs.Mean),
			fmt.Sprintf("%.2f", stats.Speedup(ps.Mean, rs.Mean)))
	}
	return t, nil
}

// FigA5_7 reproduces Appendix Figures A.5 (small), A.6 (medium) and A.7
// (large): the raw per-run timings behind the means.
func FigA5_7(eng *engine.Engine, size int) (*table.Table, error) {
	fig := map[int]string{1: "A.5", 10: "A.6", 100: "A.7"}[size]
	t := table.New(fmt.Sprintf("Fig %s: raw timings, size %d (seconds)", fig, size),
		"benchmark", "CG", "base")
	specs := workload.All()
	cg, base, err := timings(eng, fig, specs, size, "cg", "msa")
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		for r := range cg[i] {
			t.Rowf(s.Name, fmt.Sprintf("%.4f", cg[i][r].Seconds()), fmt.Sprintf("%.4f", base[i][r].Seconds()))
		}
	}
	return t, nil
}
