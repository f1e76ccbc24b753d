package experiments

import (
	"cmp"
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

// matrix is one timing matrix: every benchmark at size, Repeats times
// under collector a and Repeats times under b, at its tight heap.
type matrix struct {
	size int
	a, b string
}

// series is what a matrix measured: per benchmark, the Repeats wall
// times under a and under b — or, if any of its cells failed (a
// workload the tight heap cannot hold), the first such error in job
// order.
type series struct {
	a, b [][]time.Duration
	err  error
}

// timeMatrix runs m's jobs over specs as one batch of its own on eng.
// The two systems' jobs are interleaved (a, b, a, b, ...) so that with
// more than one worker both systems face the same mix of concurrent
// neighbours: absolute numbers still include scheduling contention, but
// it cancels in the speedup columns. For paper-grade absolute timings
// run -workers 1.
func timeMatrix(eng *engine.Engine, specs []workload.Spec, m matrix) (out series) {
	var jobs []engine.Job
	for _, s := range specs {
		for r := 0; r < Repeats; r++ {
			for _, col := range []string{m.a, m.b} {
				jobs = append(jobs, engine.Job{Workload: s.Name, Size: m.size,
					Collector: col, HeapBytes: engine.TightHeap, Repeats: averagingReps(m.size)})
			}
		}
	}
	els := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	eng.RunEach(jobs, func(i int, r engine.Result) {
		els[i], errs[i] = r.Elapsed, r.Err
	})

	out.err = cmp.Or(errs...)
	for i := range specs {
		sa := make([]time.Duration, Repeats)
		sb := make([]time.Duration, Repeats)
		for r := 0; r < Repeats; r++ {
			sa[r], sb[r] = els[(i*Repeats+r)*2], els[(i*Repeats+r)*2+1]
		}
		out.a = append(out.a, sa)
		out.b = append(out.b, sb)
	}
	return out
}

// mean is a series entry's mean wall time, in seconds.
func mean(ds []time.Duration) float64 { return stats.SummarizeDurations(ds).Mean }

// fig47_48 reproduces Figures 4.7 (size 1) and 4.8 (size 10): mean wall
// time of the CG system versus the base (traditional-collector-only)
// system, with the speedup of CG over the base in the rightmost column.
func fig47_48(specs []workload.Spec, size int) Figure {
	id := map[int]string{1: "4.7", 10: "4.8"}[size]
	return Figure{ID: id, reads: []matrix{{size, "cg", "msa"}}, tabulate: func(got []series) *table.Table {
		t := table.New(fmt.Sprintf("Fig %s: timing results, size %d (mean of %d runs, seconds)", id, size, Repeats),
			"benchmark", "CG", "base", "speedup")
		for i, s := range specs {
			cs, bs := mean(got[0].a[i]), mean(got[0].b[i])
			t.Rowf(s.Name, fmt.Sprintf("%.4f", cs), fmt.Sprintf("%.4f", bs),
				fmt.Sprintf("%.2f", stats.Speedup(bs, cs)))
		}
		return t
	}}
}

// fig410 reproduces Figure 4.10: the speedup of the CG system over the
// base system across all three problem sizes — the same runs 4.7, 4.8
// and A.5–A.7 print.
func fig410(specs []workload.Spec) Figure {
	f := Figure{ID: "4.10"}
	headers := []string{"benchmark"}
	for _, size := range []int{1, 10, 100} {
		f.reads = append(f.reads, matrix{size, "cg", "msa"})
		headers = append(headers, fmt.Sprintf("size %d", size))
	}
	f.tabulate = func(got []series) *table.Table {
		t := table.New("Fig 4.10: speedup of the CG system over the base system", headers...)
		for i, s := range specs {
			row := []any{s.Name}
			for _, g := range got {
				row = append(row, fmt.Sprintf("%.2f", stats.Speedup(mean(g.b[i]), mean(g.a[i]))))
			}
			t.Rowf(row...)
		}
		return t
	}
	return f
}

// fig412 reproduces Figure 4.12: CG with and without §3.7 recycling,
// small runs.
func fig412(specs []workload.Spec) Figure {
	return Figure{ID: "4.12", reads: []matrix{{1, "cg", "cg+recycle"}}, tabulate: func(got []series) *table.Table {
		t := table.New(fmt.Sprintf("Fig 4.12: recycle timing, small runs (mean of %d runs, seconds)", Repeats),
			"benchmark", "CG", "CG with recycling", "speedup using recycling")
		for i, s := range specs {
			ps, rs := mean(got[0].a[i]), mean(got[0].b[i])
			t.Rowf(s.Name, fmt.Sprintf("%.4f", ps), fmt.Sprintf("%.4f", rs),
				fmt.Sprintf("%.2f", stats.Speedup(ps, rs)))
		}
		return t
	}}
}

// figA5_7 reproduces Appendix Figures A.5 (small), A.6 (medium) and A.7
// (large): the raw per-run timings behind the means of 4.7, 4.8 and
// 4.10.
func figA5_7(specs []workload.Spec, size int) Figure {
	id := map[int]string{1: "A.5", 10: "A.6", 100: "A.7"}[size]
	return Figure{ID: id, reads: []matrix{{size, "cg", "msa"}}, tabulate: func(got []series) *table.Table {
		t := table.New(fmt.Sprintf("Fig %s: raw timings, size %d (seconds)", id, size), "benchmark", "CG", "base")
		for i, s := range specs {
			for r := range got[0].a[i] {
				t.Rowf(s.Name, fmt.Sprintf("%.4f", got[0].a[i][r].Seconds()), fmt.Sprintf("%.4f", got[0].b[i][r].Seconds()))
			}
		}
		return t
	}}
}
