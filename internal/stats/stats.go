// Package stats provides the small numeric helpers the experiment
// harness shares: summary statistics over repeated timing runs, speedups
// and percentages.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Summary condenses repeated measurements (the thesis reports five runs
// per configuration, Appendix A.5–A.7).
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	Std  float64
}

// Summarize computes a Summary over xs. An empty slice yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// SummarizeDurations is Summarize over time.Durations, in seconds.
func SummarizeDurations(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return Summarize(xs)
}

// Speedup reports base/other — the thesis's convention, where a value
// above 1 means the CG system is faster than the base system (Fig 4.7:
// "speedup of our approach over JDK").
func Speedup(base, other float64) float64 {
	if other == 0 {
		return math.Inf(1)
	}
	return base / other
}

// Pct formats part/whole as a percentage string; whole 0 yields "0%".
func Pct(part, whole uint64) string {
	if whole == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// PctF is Pct's numeric form.
func PctF(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
