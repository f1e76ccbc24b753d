package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/results"
)

// sweepFigs is the acceptance trio: 4.1 (two cells per row), 4.5
// (histograms) and 4.11 (forced-GC cells with the GC-cycle column).
func sweepFigs(t *testing.T) []experiments.SweepFig {
	t.Helper()
	figs, err := experiments.DemographicFigs("4.1", "4.5", "4.11")
	if err != nil {
		t.Fatal(err)
	}
	return figs
}

func runSweep(t *testing.T, b results.Backend) string {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.Sweep(b, sweepFigs(t), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSweepDeterminismAcrossBackends is the acceptance criterion: the
// multi-process coordinator path (4 workers over the real NDJSON
// protocol) renders byte-identical output to the in-process
// single-worker path for Figs 4.1/4.5/4.11.
func TestSweepDeterminismAcrossBackends(t *testing.T) {
	sequential := runSweep(t, results.Local{Eng: engine.New(1)})
	parallel := runSweep(t, results.Local{Eng: engine.New(8)})
	procs := runSweep(t, &dist.Coordinator{Spawn: dist.InProcess(2), Procs: 4})

	if sequential != parallel {
		t.Fatal("-workers 8 output diverged from -workers 1")
	}
	if sequential != procs {
		t.Fatalf("-procs 4 output diverged from -workers 1:\n--- in-process\n%s\n--- distributed\n%s",
			sequential, procs)
	}
	for _, want := range []string{"Fig 4.1", "Fig 4.5", "Fig 4.11", "compress", "jack"} {
		if !strings.Contains(sequential, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, sequential)
		}
	}
}

// TestSweepResume is the other acceptance criterion: a sweep over a
// populated store recomputes zero cells and renders the same bytes.
func TestSweepResume(t *testing.T) {
	st, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// sweepStored runs the trio as one session of a pipeline over exec
	// and the store, and returns the bytes and the session's accounting.
	sweepStored := func(exec results.Exec) (string, results.SessionStats) {
		s := results.NewScheduler(exec, st, nil, 4)
		sess, err := s.OpenSession("")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Wait()
		defer sess.Close()
		return runSweep(t, sess), sess.Stats()
	}
	coldOut, cold := sweepStored(results.Local{Eng: engine.New(4)})
	// The plan hands the store the 24 distinct cells of the 32 — 4.1's
	// sixteen (cg+noopt and cg per benchmark) and 4.11's eight cg+reset;
	// 4.5's eight are 4.1's cg half and never reach it — so a cold store
	// has nothing to serve and every cell it sees is computed.
	if cold.Stored != 0 || cold.Computed != 24 {
		t.Fatalf("cold sweep: stored=%d computed=%d, want 0/24", cold.Stored, cold.Computed)
	}

	warmOut, warm := sweepStored(results.Local{Eng: engine.New(4)})
	if warm.Stored != 24 || warm.Computed != 0 {
		t.Fatalf("resumed sweep: stored=%d computed=%d, want 24/0", warm.Stored, warm.Computed)
	}
	if coldOut != warmOut {
		t.Fatal("resumed sweep output diverged from the cold run")
	}

	// The store also carries across transports: a distributed resume
	// over the same store computes nothing either.
	coord := &dist.Coordinator{Spawn: dist.InProcess(2), Procs: 2}
	defer coord.Close()
	procsOut, procs := sweepStored(coord)
	if procs.Computed != 0 {
		t.Fatalf("distributed resume recomputed %d cells, want 0", procs.Computed)
	}
	if procsOut != coldOut {
		t.Fatal("distributed resume output diverged")
	}
}

// TestSweepStreamsRowsBeforeCompletion pins the streaming property: the
// first benchmark's row is on the writer before the last cell's
// outcome has been emitted.
func TestSweepStreamsRowsBeforeCompletion(t *testing.T) {
	figs, err := experiments.DemographicFigs("4.5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sawFirstRowEarly := false
	probe := probeBackend{inner: results.Local{Eng: engine.New(2)}, beforeLast: func() {
		sawFirstRowEarly = strings.Contains(buf.String(), "compress")
	}}
	if err := experiments.Sweep(probe, figs, &buf); err != nil {
		t.Fatal(err)
	}
	if !sawFirstRowEarly {
		t.Fatal("no row had been rendered by the time the last cell was emitted")
	}
}

// probeBackend relays to inner but calls beforeLast just before
// emitting the final outcome.
type probeBackend struct {
	inner      results.Backend
	beforeLast func()
}

func (p probeBackend) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	return p.inner.Run(jobs, func(i int, o results.Outcome) {
		if i == len(jobs)-1 {
			p.beforeLast()
		}
		emit(i, o)
	})
}

// TestSweepRejectsNonCGFig guards the error path end to end: a figure
// whose jobs resolve to a non-CG collector fails the sweep instead of
// rendering garbage.
func TestSweepRejectsNonCGFig(t *testing.T) {
	bad := experiments.SweepFig{
		ID:          "x",
		Title:       "bogus",
		Headers:     []string{"benchmark"},
		Jobs:        []engine.Job{{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: engine.TightHeap}},
		CellsPerRow: 1,
		Row:         func(int, []experiments.Cell) []any { return []any{"compress"} },
	}
	var buf bytes.Buffer
	err := experiments.Sweep(results.Local{Eng: engine.New(1)}, []experiments.SweepFig{bad}, &buf)
	if err == nil || !strings.Contains(err.Error(), "not the contaminated collector") {
		t.Fatalf("sweep over msa cells must fail, got: %v", err)
	}
}

func TestDemographicFigsSelection(t *testing.T) {
	all, err := experiments.DemographicFigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Fatalf("have %d sweepable figures, want 12", len(all))
	}
	if _, err := experiments.DemographicFigs("4.13"); err == nil {
		t.Fatal("4.13 (adaptive budgets) must not be sweepable")
	}
	subset, err := experiments.DemographicFigs("4.11", "4.1")
	if err != nil {
		t.Fatal(err)
	}
	if subset[0].ID != "4.11" || subset[1].ID != "4.1" {
		t.Fatalf("subset order not preserved: %s, %s", subset[0].ID, subset[1].ID)
	}
}
