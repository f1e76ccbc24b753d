package experiments

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/results"
)

// The testdata goldens were captured from the seed tree (the interface-
// dispatch collector ABI, pre event table) with:
//
//	cgbench -workers 1 -fig 4.1|4.5|4.11 > fig4*.golden
//	cgsweep -workers 1 -figs 4.1,4.5,4.11 > sweep_4_1_4_5_4_11.golden
//
// and fig413.golden later, from the tree whose Fig 4.13 still ran
// through engine.Exec, with cgbench -workers 1 -fig 4.13: the figure's
// bytes must not depend on the shard lifecycle that runs its cells.
//
// These tests are the ABI-swap equivalence suite: the event-table
// runtime must reproduce every figure and the streamed sweep byte for
// byte. They intentionally pin real output bytes, not shapes — a
// collector that sees one extra or one fewer event moves a counter
// somewhere in these tables.

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFigGoldenBytes pins the Fig 4.1/4.5/4.11 tables (the three
// figures covering allocation, block-size and resetting event streams)
// to the seed capture, and Fig 4.13 (recycling under a calibrated
// arena) to its own. The trailing newline matches cgbench's
// per-figure println.
func TestFigGoldenBytes(t *testing.T) {
	texts := renderAll(t, engine.New(4), "4.1", "4.5", "4.11", "4.13")
	for i, c := range []struct{ fig, file string }{
		{"4.1", "fig41.golden"},
		{"4.5", "fig45.golden"},
		{"4.11", "fig411.golden"},
		{"4.13", "fig413.golden"},
	} {
		want := golden(t, c.file)
		if got := texts[i] + "\n"; got != want {
			t.Errorf("Fig %s diverged from the seed capture:\n--- got\n%s--- want\n%s", c.fig, got, want)
		}
	}
}

// TestSweepGoldenBytes pins the streamed cgsweep rendering of the same
// figures — the store/sink path, whose cells flow through
// results.Extract and the typed payload codec — to the seed capture.
func TestSweepGoldenBytes(t *testing.T) {
	figs, err := DemographicFigs("4.1", "4.5", "4.11")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Sweep(results.Local{Eng: engine.New(4)}, figs, &buf); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "sweep_4_1_4_5_4_11.golden"); buf.String() != want {
		t.Errorf("sweep output diverged from the seed capture:\n--- got\n%s--- want\n%s", buf.String(), want)
	}
}
