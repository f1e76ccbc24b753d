// Package stats provides the small numeric helpers the experiment
// harness shares: the mean of repeated timing runs, speedups and
// percentages.
package stats

import (
	"fmt"
	"math"
	"time"
)

// MeanSeconds is the mean of repeated wall-clock runs, in seconds (the
// thesis reports five runs per configuration, Appendix A.5–A.7). An
// empty slice yields 0.
func MeanSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ds {
		sum += d.Seconds()
	}
	return sum / float64(len(ds))
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
