package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary: %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty: %+v", s)
	}
	if s := Summarize([]float64{7}); s.N != 1 || s.Std != 0 || s.Mean != 7 {
		t.Fatalf("single: %+v", s)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

// TestSummaryBounds property: Min <= Mean <= Max for any input.
func TestSummaryBounds(t *testing.T) {
	check := func(xs []float64) bool {
		for _, x := range xs {
			// Skip pathological inputs whose sum overflows float64.
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s := Summarize(xs)
		if s.N == 0 {
			return true
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10, 5); got != 2 {
		t.Fatalf("Speedup(10,5) = %v", got)
	}
	if got := Speedup(5, 10); got != 0.5 {
		t.Fatalf("Speedup(5,10) = %v", got)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("division by zero not handled")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(1, 4); got != "25%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(3, 0); got != "0%" {
		t.Fatalf("Pct zero whole = %q", got)
	}
	if got := PctF(1, 2); got != 50 {
		t.Fatalf("PctF = %v", got)
	}
}
