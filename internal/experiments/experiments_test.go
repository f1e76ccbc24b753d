package experiments

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/results"
	"repro/internal/workload"
)

// testEng is the engine cgbench renders on: every worker the host has.
var testEng = engine.New(0)

// rendering is one Render call's figures and results.
type rendering struct {
	figs  []Figure
	texts []string
	errs  []error
}

// everyFigure renders every figure once per test binary, at its real
// sizes, as cgbench with no flags does — but for the size-100 and the
// wall-clock ones under -short.
var everyFigure = sync.OnceValue(func() rendering {
	figs, _ := Figures()
	figs = slices.DeleteFunc(figs, func(f Figure) bool {
		return testing.Short() && (f.Large() || f.Timing())
	})
	texts, errs := Render(testEng, figs)
	return rendering{figs, texts, errs}
})

// rendered is figure id's text from everyFigure.
func rendered(t *testing.T, id string) string {
	t.Helper()
	r := everyFigure()
	i := slices.IndexFunc(r.figs, func(f Figure) bool { return f.ID == id })
	if i < 0 {
		t.Fatalf("Fig %s was not rendered", id)
	}
	if r.errs[i] != nil {
		t.Fatal(r.errs[i])
	}
	return r.texts[i]
}

// skipTiming skips a test of the wall-clock figures under -short.
func skipTiming(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("wall-clock figures in -short mode")
	}
}

// countingLocal is results.Local counting the batches and cells it is
// handed and the cells it computes.
type countingLocal struct {
	results.Local
	batches, submitted int
	computed           atomic.Int64
}

func (c *countingLocal) Exec(slot int, job engine.Job) results.Outcome {
	c.computed.Add(1)
	return c.Local.Exec(slot, job)
}

func (c *countingLocal) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	c.batches++
	c.submitted += len(jobs)
	return results.RunOnce(c, nil, c.Eng.Workers(), jobs, emit)
}

// renderAll renders the named figures on eng, failing t on any error.
func renderAll(t *testing.T, eng *engine.Engine, ids ...string) []string {
	t.Helper()
	figs, err := Figures(ids...)
	if err != nil {
		t.Fatal(err)
	}
	texts, errs := Render(eng, figs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Fig %s: %v", figs[i].ID, err)
		}
	}
	return texts
}

// rows pulls the data rows out of a rendered table (skips title,
// header, rule and notes).
func rows(s string) [][]string {
	var out [][]string
	for i, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if i < 3 || strings.HasPrefix(line, " ") {
			continue
		}
		out = append(out, strings.Fields(line))
	}
	return out
}

// TestEveryFigureRenders renders every id cgbench prints, in thesis
// order, at its real sizes (everyFigure says which it leaves out under
// -short), and each must render: cgbench exits 0 exactly when they all
// do. 4.10 and A.7 read jess at size 100, which completes its tight heap
// under msa only because the heap compacts on exhaustion.
func TestEveryFigureRenders(t *testing.T) {
	want := []string{"2.1", "3.1", "4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7", "4.8", "4.9",
		"4.10", "4.11", "4.12", "4.13", "A.1", "A.2", "A.3", "A.4", "A.5", "A.6", "A.7"}
	all, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range all {
		ids = append(ids, f.ID)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("figure list %v, want %v", ids, want)
	}
	r := everyFigure()
	if !testing.Short() && len(r.figs) != len(all) {
		t.Fatalf("rendered %d figures, want all %d", len(r.figs), len(all))
	}
	for i, f := range r.figs {
		if err := r.errs[i]; err != nil {
			t.Errorf("Fig %s: %v", f.ID, err)
		} else if !strings.HasPrefix(r.texts[i], "Fig "+f.ID) {
			t.Errorf("Fig %s rendered\n%s", f.ID, r.texts[i])
		}
	}
}

// TestDemographicFiguresComputeEachCellOnce: the 12 demographic figures'
// 104 cells are 40 distinct ones, and rendering them computes those 40
// once each, in one pass of the cell pipeline.
func TestDemographicFiguresComputeEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("the demographic figures have size-100 cells")
	}
	demo, err := DemographicFigs()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range demo {
		ids = append(ids, f.ID)
	}
	figs, err := Figures(ids...)
	if err != nil {
		t.Fatal(err)
	}
	b := &countingLocal{Local: results.Local{Eng: engine.New(2)}}
	_, errs := render(b, b.Eng, figs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := b.computed.Load(); len(ids) != 12 || b.batches != 1 || b.submitted != 40 || n != 40 {
		t.Errorf("%d demographic figures: %d batches, %d cells submitted, %d computed; want 12 figures, 1 batch, 40 and 40",
			len(ids), b.batches, b.submitted, n)
	}
}

// TestTimingMatricesRunOnce: 4.7, 4.8, 4.12, A.5 and A.6 read three
// distinct matrices — cg/msa at sizes 1 and 10, cg/cg+recycle at size
// 1 — so rendering them, which runs each distinct matrix once, runs 3 ×
// 8 benchmarks × 5 repeats × 2 systems = 240 timing jobs, not a matrix
// per figure (400).
func TestTimingMatricesRunOnce(t *testing.T) {
	figs, err := Figures("4.7", "4.8", "4.12", "A.5", "A.6")
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, m := range matrices(figs) {
		jobs += len(m.jobs(workload.All()))
	}
	if jobs != 240 {
		t.Errorf("rendering 4.7, 4.8, 4.12, A.5 and A.6 ran %d timing jobs, want 240", jobs)
	}
}

// TestMeansAreOfTheRawRuns: Figs 4.7 and 4.8 print the means of the very
// runs A.5 and A.6 list, so each CG and base cell equals the mean of its
// benchmark's raw rows to within the two roundings to 0.0001 s.
func TestMeansAreOfTheRawRuns(t *testing.T) {
	skipTiming(t)
	for _, c := range []struct{ means, raw string }{{"4.7", "A.5"}, {"4.8", "A.6"}} {
		sums := map[string][2]float64{}
		for _, r := range rows(rendered(t, c.raw)) {
			s := sums[r[0]]
			s[0] += seconds(t, r[1]) / Repeats
			s[1] += seconds(t, r[2]) / Repeats
			sums[r[0]] = s
		}
		for _, r := range rows(rendered(t, c.means)) {
			for col, name := range []string{"CG", "base"} {
				if got, want := seconds(t, r[1+col]), sums[r[0]][col]; math.Abs(got-want) > 0.0001+1e-9 {
					t.Errorf("Fig %s %s/%s = %.4f s, but the mean of its Fig %s runs is %.5f s",
						c.means, r[0], name, got, c.raw, want)
				}
			}
		}
	}
}

func seconds(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFig41Shape(t *testing.T) {
	tb := rendered(t, "4.1")
	rs := rows(tb)
	if len(rs) != 8 {
		t.Fatalf("Fig 4.1 must have 8 rows, got %d:\n%s", len(rs), tb)
	}
	// The optimization must never reduce the collectable percentage.
	for _, r := range rs {
		no := r[len(r)-2]
		with := r[len(r)-1]
		if pctVal(t, with) < pctVal(t, no) {
			t.Fatalf("optimization reduced collectable on %s: %s -> %s", r[0], no, with)
		}
	}
}

func pctVal(t *testing.T, s string) int {
	t.Helper()
	v := 0
	if _, err := sscanPct(s, &v); err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func sscanPct(s string, v *int) (int, error) {
	n := 0
	for _, c := range s {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	*v = n
	return 1, nil
}

func TestFig42HasJavacThreadShare(t *testing.T) {
	tb := rendered(t, "4.2")
	for _, r := range rows(tb) {
		if r[0] == "javac" {
			var share int
			sscanPct(r[len(r)-1], &share)
			if share < 30 {
				t.Fatalf("javac thread share = %d%%, want the dominant bucket:\n%s", share, tb)
			}
			return
		}
	}
	t.Fatalf("javac row missing:\n%s", tb)
}

func TestFig45RowsSumToCollectable(t *testing.T) {
	tb := rendered(t, "4.5")
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.5 must have 8 rows:\n%s", tb)
	}
}

func TestFig46RaytraceDeepDeaths(t *testing.T) {
	tb := rendered(t, "4.6")
	for _, r := range rows(tb) {
		if r[0] == "raytrace" {
			var over5 int
			sscanPct(r[len(r)-1], &over5)
			if over5 == 0 {
				t.Fatalf("raytrace must populate the >5 bucket:\n%s", tb)
			}
			return
		}
	}
	t.Fatal("raytrace row missing")
}

func TestFig49LargeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large runs in -short mode")
	}
	tb := rendered(t, "4.9")
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.9 must have 8 rows:\n%s", tb)
	}
}

func TestFig411ResettingRuns(t *testing.T) {
	tb := rendered(t, "4.11")
	rs := rows(tb)
	if len(rs) != 8 {
		t.Fatalf("Fig 4.11 must have 8 rows:\n%s", tb)
	}
	// At least one benchmark must actually have triggered forced cycles.
	cycles := 0
	for _, r := range rs {
		var c int
		sscanPct(r[len(r)-1], &c)
		cycles += c
	}
	if cycles == 0 {
		t.Fatalf("no forced GC cycles ran:\n%s", tb)
	}
}

func TestFig413RecyclingCountsSomething(t *testing.T) {
	tb := rendered(t, "4.13")
	rs := rows(tb)
	if len(rs) != 8 {
		t.Fatalf("Fig 4.13 must have 8 rows:\n%s", tb)
	}
	total := 0
	for _, r := range rs {
		var c int
		sscanPct(r[1], &c)
		total += c
	}
	if total == 0 {
		t.Fatalf("no benchmark recycled any object:\n%s", tb)
	}
}

func TestFigA1(t *testing.T) {
	tb := rendered(t, "A.1")
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig A.1 must have 8 rows:\n%s", tb)
	}
}

func TestFigA2Breakdown(t *testing.T) {
	tb := rendered(t, "A.2")
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig A.2 must have 8 rows:\n%s", tb)
	}
}

func TestExample21Narrative(t *testing.T) {
	out := Example21()
	for _, want := range []string{
		"(1) B.f=A", "(4) E.f=D", "A->frame 0",
		"contamination cannot be undone",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("example trace missing %q:\n%s", want, out)
		}
	}
	// After step 1, A depends on frame 2.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "(1) B.f=A") && !strings.Contains(line, "A->frame 2") {
			t.Fatalf("step 1 must move A to frame 2: %s", line)
		}
		if strings.Contains(line, "(2) C.f=B") && !strings.Contains(line, "A->frame 1") {
			t.Fatalf("step 2 must move A to frame 1: %s", line)
		}
	}
}

func TestExample31Narrative(t *testing.T) {
	out := Example31()
	if !strings.Contains(out, "static forever") || !strings.Contains(out, "sharing: 1") {
		t.Fatalf("sharing example wrong:\n%s", out)
	}
}

func TestTimingSmokeTest(t *testing.T) {
	skipTiming(t)
	if tb := rendered(t, "4.7"); len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.7 must have 8 rows:\n%s", tb)
	}
	if tb := rendered(t, "4.12"); len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.12 must have 8 rows:\n%s", tb)
	}
}

// TestEngineDeterminism is the merge soundness check: a multi-worker
// regeneration of the demographics figures must render byte-identical
// tables to a -workers 1 run — the pipeline delivers cells in
// submission order, so completion order must not be observable.
func TestEngineDeterminism(t *testing.T) {
	ids := []string{"4.1", "4.5", "4.11"}
	seq := renderAll(t, engine.New(1), ids...)
	par := renderAll(t, engine.New(8), ids...)
	for i, id := range ids {
		if seq[i] != par[i] {
			t.Fatalf("Fig %s diverges between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", id, seq[i], par[i])
		}
	}
}
