package experiments_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/results"
)

// The demographic figures' bytes are the benchmark's committed capture
// of the default sweep, bench/golden/sweep_default.txt, read here and
// never written. The testdata goldens were captured with:
//
//	cgsweep -workers 1 -figs 4.1,4.5,4.11 > sweep_4_1_4_5_4_11.golden
//
// from the seed tree (the interface-dispatch collector ABI, pre event
// table), and fig413.golden from the tree whose Fig 4.13 still ran
// through engine.Exec, with cgbench -workers 1 -fig 4.13: the figure's
// bytes must not depend on the shard lifecycle that runs its cells.
//
// These tests are the ABI-swap equivalence suite: the event-table
// runtime must reproduce every figure byte for byte. They intentionally
// pin real output bytes, not shapes — a collector that sees one extra
// or one fewer event moves a counter somewhere in these tables.

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFigGoldenBytes: Render prints each of the 12 demographic figures
// exactly as the sweep does — its block of the default sweep's golden
// — and Fig 4.13 (recycling under a calibrated arena) as its own
// capture. The trailing newline of 4.13's golden is cgbench's
// per-figure println. Under -short the size-100 figures are left out.
func TestFigGoldenBytes(t *testing.T) {
	demo, err := experiments.DemographicFigs()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range demo {
		ids = append(ids, f.ID)
	}
	figs, err := experiments.Figures(append(ids, "4.13")...)
	if err != nil {
		t.Fatal(err)
	}
	figs = slices.DeleteFunc(figs, func(f experiments.Figure) bool { return testing.Short() && f.Large() })
	texts, errs := experiments.Render(engine.New(4), figs)
	blocks := goldenBlocks(t)
	for i, f := range figs {
		want := blocks[f.ID] + "\n"
		if f.ID == "4.13" {
			want = strings.TrimSuffix(golden(t, "fig413.golden"), "\n")
		}
		if errs[i] != nil {
			t.Errorf("Fig %s: %v", f.ID, errs[i])
		} else if texts[i] != want {
			t.Errorf("Fig %s diverged from its golden:\n--- got\n%s--- want\n%s", f.ID, texts[i], want)
		}
	}
}

// TestSweepGoldenBytes pins the streamed cgsweep rendering of Figs 4.1,
// 4.5 and 4.11 — the store/sink path, whose cells flow through
// results.Extract and the typed payload codec — to the seed capture.
func TestSweepGoldenBytes(t *testing.T) {
	figs, err := experiments.DemographicFigs("4.1", "4.5", "4.11")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := experiments.Sweep(results.Local{Eng: engine.New(4)}, figs, &buf); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "sweep_4_1_4_5_4_11.golden"); buf.String() != want {
		t.Errorf("sweep output diverged from the seed capture:\n--- got\n%s--- want\n%s", buf.String(), want)
	}
}
