package experiments

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// testEng saturates the host: every figure regenerates through the
// sharded engine exactly as cgbench does by default.
var testEng = engine.New(0)

// parse pulls the data rows out of a rendered table (skips title,
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

func TestFig41Shape(t *testing.T) {
	tb := Fig41(testEng).String()
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
	tb := Fig42_44(testEng, 1).String()
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
	tb := Fig45(testEng).String()
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.5 must have 8 rows:\n%s", tb)
	}
}

func TestFig46RaytraceDeepDeaths(t *testing.T) {
	tb := Fig46(testEng).String()
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
	tb := Fig49(testEng).String()
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.9 must have 8 rows:\n%s", tb)
	}
}

func TestFig411ResettingRuns(t *testing.T) {
	tb := Fig411(testEng).String()
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
	fig, err := Fig413(testEng)
	if err != nil {
		t.Fatal(err)
	}
	tb := fig.String()
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
	tb := FigA1(testEng).String()
	if len(rows(tb)) != 8 {
		t.Fatalf("Fig A.1 must have 8 rows:\n%s", tb)
	}
}

func TestFigA2Breakdown(t *testing.T) {
	tb := FigA2_4(testEng, 1).String()
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
	if testing.Short() {
		t.Skip("timing in -short mode")
	}
	f47, err := Fig47_48(testEng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb := f47.String(); len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.7 must have 8 rows:\n%s", tb)
	}
	f412, err := Fig412(testEng)
	if err != nil {
		t.Fatal(err)
	}
	if tb := f412.String(); len(rows(tb)) != 8 {
		t.Fatalf("Fig 4.12 must have 8 rows:\n%s", tb)
	}
}

// TestTimingCellErrorFailsFigure: a cell the tight heap cannot hold fails
// its figure with one "sweep <id>: ..." error, not a panic. jess at size
// 100 is that cell today (ROADMAP open item 0: the slab arena refuses an
// allocation at ~42 % occupancy); the error must say what was refused and
// how full the arena was.
func TestTimingCellErrorFailsFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("size-100 cells in -short mode")
	}
	jess, err := workload.ByName("jess")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("timings panicked instead of returning the cell's error: %v", r)
		}
	}()
	_, _, err = timings(testEng, "A.7", []workload.Spec{jess}, 100, "cg", "msa")
	if err == nil {
		t.Skip("jess/100 completes under msa at its tight heap: item 0 is fixed, nothing fails here any more")
	}
	for _, want := range []string{"sweep A.7: ", "jess/100 under msa", "vm: heap exhausted after full collection: refused ", "% occupancy (alloc "} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "goroutine ") {
		t.Errorf("error carries a stack trace: %q", err)
	}
}

// TestEngineDeterminism is the merge soundness check: a multi-worker
// regeneration of the demographics figures must render byte-identical
// tables to a -workers 1 run — results land in submission-order slots,
// so completion order must not be observable.
func TestEngineDeterminism(t *testing.T) {
	seq := engine.New(1)
	par := engine.New(8)
	for _, c := range []struct {
		fig string
		gen func(*engine.Engine) string
	}{
		{"4.1", func(e *engine.Engine) string { return Fig41(e).String() }},
		{"4.5", func(e *engine.Engine) string { return Fig45(e).String() }},
		{"4.11", func(e *engine.Engine) string { return Fig411(e).String() }},
	} {
		a, b := c.gen(seq), c.gen(par)
		if a != b {
			t.Fatalf("Fig %s diverges between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", c.fig, a, b)
		}
	}
}

// TestPooledFigureIdentity renders the same figures twice on one
// engine: the first pass fills the shard pool, the second runs on
// recycled (Reset) runtimes. The rendered bytes must not differ — the
// figure-level form of the pooled-shard determinism contract.
func TestPooledFigureIdentity(t *testing.T) {
	eng := engine.New(4)
	first := Fig41(eng).String() + Fig45(eng).String()
	second := Fig41(eng).String() + Fig45(eng).String()
	if first != second {
		t.Fatalf("pooled re-render differs:\n%s\nvs\n%s", second, first)
	}
}
