package stats

import (
	"math"
	"testing"
	"time"
)

// The Summarize* tests keep their names from when the mean came with a
// Min/Max/Std summary; they now check MeanSeconds, which replaced it.

func TestSummarizeBasics(t *testing.T) {
	ds := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if got := MeanSeconds(ds); got != 2.5 {
		t.Fatalf("MeanSeconds(1..4 s) = %v, want 2.5", got)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if got := MeanSeconds(nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := MeanSeconds([]time.Duration{7 * time.Second}); got != 7 {
		t.Fatalf("single: %v", got)
	}
}

func TestSummarizeDurations(t *testing.T) {
	if got := MeanSeconds([]time.Duration{time.Second, 3 * time.Second}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestMeanSeconds(t *testing.T) {
	if got := MeanSeconds([]time.Duration{250 * time.Millisecond, 750 * time.Millisecond}); got != 0.5 {
		t.Fatalf("MeanSeconds(250ms, 750ms) = %v, want 0.5", got)
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
