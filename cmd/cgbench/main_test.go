package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/msa"
)

// TestTimingFiguresTimeTheProgram pins what the wall-clock figures
// measure: every cell drives its program, so after a timing figure the
// engine behind it holds no tape it could have replayed instead.
func TestTimingFiguresTimeTheProgram(t *testing.T) {
	eng := timingEngine(1, 0, msa.TraceConfig{})
	if tb, err := experiments.Fig47_48(eng, 1); err != nil || tb.String() == "" {
		t.Fatalf("Fig 4.7 rendered nothing (err %v)", err)
	}
	if n := eng.Tapes(); n != 0 {
		t.Errorf("after Fig 4.7 the engine holds %d tapes; a timing figure must drive every cell", n)
	}
}
