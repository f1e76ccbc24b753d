package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.q2) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want quartiles %g %g %g", c.xs, s, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", p, got, want)
		}
	}
	// The reported tail is the highest percentile with at least ten
	// samples beyond it.
	for n, want := range map[int]float64{10: 50, 39: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %g, want 4", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "figure", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "cell", StartNS: 10, EndNS: 60, Parent: 0},    // nested in figure
		{Name: "drive", StartNS: 20, EndNS: 50, Parent: 1},   // nested in cell
		{Name: "render", StartNS: 70, EndNS: 90, Parent: 0},  // sibling of cell
		{Name: "overlap", StartNS: 40, EndNS: 55, Parent: 1}, // overlaps drive: merged, not double-counted
		{Name: "spill", StartNS: 95, EndNS: 120, Parent: 0},  // clipped to the parent's end
	}
	want := []int64{100 - 50 - 20 - 5, 50 - 35, 30, 20, 15, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := selfByName(spans)
	if !near(by["cell"], 15e-6) || !near(by["drive"], 30e-6) {
		t.Errorf("selfByName = %v", by)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer("w", false)
	id := tr.begin("cell", "engine", "k", 1, -1)
	tr.end(id)
	if id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans (id %d)", len(tr.spans), id)
	}
	tr = newTracer("w", true)
	id = tr.begin("cell", "engine", "k", 1, -1)
	tr.end(id)
	if len(tr.spans) != 1 || tr.spans[0].EndNS < tr.spans[0].StartNS || tr.spans[0].Workload != "w" {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	if a, b := matrixOrder(1, 3), matrixOrder(1, 3); !reflect.DeepEqual(a, b) {
		t.Error("same seed, same pass: different matrix order")
	}
	if a, b := matrixOrder(1, 3), matrixOrder(2, 3); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same matrix order")
	}
	if a, b := matrixOrder(1, 3), matrixOrder(1, 4); reflect.DeepEqual(a, b) {
		t.Error("different passes gave the same matrix order")
	}
	if n := len(matrixOrder(1, 0)); n != len(matrixPrograms)*len(matrixCollectors) {
		t.Errorf("matrix pass has %d cells", n)
	}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = strings.Repeat("k", i+1)
	}
	a, b, c := getSample(1, keys, 0, 5), getSample(1, keys, 0, 5), getSample(2, keys, 0, 5)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("GET samples do not follow the seed")
	}
	conditional := 0
	for _, g := range a {
		if g.conditional {
			conditional++
		}
	}
	if len(a) != 20 || conditional != 6 {
		t.Errorf("GET sample: %d requests, %d conditional; want 20 and 6", len(a), conditional)
	}
	e := &env{seed: 1, prof: fullProfile}
	s1, s2 := e.cellsSpec(1), e.cellsSpec(1)
	e.seed = 2
	s3 := e.cellsSpec(1)
	if !reflect.DeepEqual(s1, s2) || reflect.DeepEqual(s1, s3) || len(s1.Cells) != 28 {
		t.Error("Cells spec does not follow the seed")
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := newResult(workloadDef{Why: "why"}, nil)
	r.put("wall_s", summarize([]float64{1, 2, 3}))
	r.putValue("cpu_s", 0.5)
	r.putValue("peak_rss_mb", 12)
	r.putValue("setup_s", 1.25)
	r.putTail("serve_cell_get_tail_us", []float64{1, 2, 3})
	o := &ops{}
	o.check("good", nil)
	r.addOps(o)
	rep := &report{Seed: 7, W: 2, Profile: "full", Workloads: map[string]*workloadResult{"sweep_default": r}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Workloads["sweep_default"].Metrics, r.Metrics) || back.Seed != 7 {
		t.Errorf("round trip changed the report: %s", data)
	}

	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(contractLine(r, false)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) ||
		line.Metrics["wall_s"].Value != 2 || line.Metrics["wall_s"].Unit != "s" {
		t.Errorf("contract line = %+v", line)
	}
	delete(r.Metrics, "peak_rss_mb")
	if err := json.Unmarshal([]byte(contractLine(r, false)), &line); err != nil || line.Correct {
		t.Errorf("a result missing a metric must not be correct: %+v", line)
	}
}

func TestDeadlineExpiredChildIsOneFailedOp(t *testing.T) {
	e := &env{w: 1, scratch: t.TempDir()}
	var o ops
	start := time.Now()
	c := e.run(context.Background(), 100*time.Millisecond, "sleep", "30")
	if o.check("sleep", c.err); o.attempted != 1 || o.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1 (err %v)", o.attempted, o.failed, c.err)
	}
	if c.err == nil || !strings.Contains(c.err.Error(), "deadline") {
		t.Errorf("err = %v, want a deadline error", c.err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("the hung child held the benchmark for %v", time.Since(start))
	}
	if c := e.run(context.Background(), 5*time.Second, "true"); c.err != nil || c.WallMS <= 0 {
		t.Errorf("true: %+v", c)
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall, unions float64) *report {
		r := newResult(workloadDef{Why: "why"}, nil)
		r.put("wall_s", summary{Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, N: 5})
		r.putValue("core.unions", unions)
		r.putValue("vm.ns_per_op", wall*17) // unbounded: never fails a comparison
		return &report{Workloads: map[string]*workloadResult{"sweep_default": r}}
	}
	var out bytes.Buffer
	if rc := compareReports(&out, mk(1, 100), mk(1.05, 100)); rc != 0 {
		t.Errorf("5%% is inside the bound: rc %d\n%s", rc, out.String())
	}
	out.Reset()
	if rc := compareReports(&out, mk(1, 100), mk(1.4, 100)); rc == 0 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("40%% worse: rc %d\n%s", rc, out.String())
	}
	out.Reset()
	if rc := compareReports(&out, mk(1, 100), mk(0.6, 100)); rc == 0 || !strings.Contains(out.String(), "BETTER") {
		t.Errorf("40%% better: rc %d\n%s", rc, out.String())
	}
	out.Reset()
	if rc := compareReports(&out, mk(1, 100), mk(1, 101)); rc == 0 || !strings.Contains(out.String(), "exact") {
		t.Errorf("an exact count that differs: rc %d\n%s", rc, out.String())
	}
	failed := mk(1, 100)
	failed.Workloads["sweep_default"].OpsFailed = 1
	if rc := compareReports(&out, mk(1, 100), failed); rc == 0 {
		t.Error("failed operations must fail the comparison")
	}
}

// BENCHMARK.json is the driver's view of this package; it must name
// exactly the workloads and metrics defined here.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: %q/%q, want %q/%q", i, w.Name, w.Why, d.Name, d.Why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, d := range detail {
		if _, ok := workloadByName(d.Workload); !ok && d.Workload != "" {
			t.Errorf("detail metric %s names no workload (%q)", d.Name, d.Workload)
		}
	}
	for name, metric := range spanNames {
		if _, ok := allDefs[metric]; !ok {
			t.Errorf("span %s maps to undefined metric %s", name, metric)
		}
	}
}

// The smoke test runs every workload end to end on the quick profile,
// and one traced run, against freshly built binaries.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, quickProfile, 1, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if _, err := e.setup(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadDefs {
		r := newResult(d, newCalibrator(e.w))
		d.Run(ctx, e, r)
		r.putValue("setup_s", 1)
		if r.OpsFailed != 0 || r.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", d.Name, r.OpsFailed, r.OpsAttempted, r.Failures)
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.N == 0 || v.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", d.Name, m.Name, v)
			}
		}
		for _, m := range detail {
			if _, ok := r.Metrics[m.Name]; ok != (m.Workload == d.Name || m.Workload == "") {
				t.Errorf("%s: detail metric %s present = %v", d.Name, m.Name, ok)
			}
		}
	}

	d, _ := workloadByName("serve_mixed")
	r := newResult(d, newCalibrator(e.w))
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	runTraced(ctx, e, d, r, tracePath)
	if r.OpsFailed != 0 {
		t.Errorf("traced run: %d operations failed: %v", r.OpsFailed, r.Failures)
	}
	for _, m := range perLayer {
		if v, ok := r.Metrics[m.Name]; !ok || v.N == 0 {
			t.Errorf("traced run: per-layer metric %s missing", m.Name)
		}
	}
	var trace struct{ Spans []span }
	data, err := os.ReadFile(tracePath)
	if err == nil {
		err = json.Unmarshal(data, &trace)
	}
	if err != nil || len(trace.Spans) == 0 {
		t.Errorf("trace.json: %d spans, err %v", len(trace.Spans), err)
	}
	if ents, _ := os.ReadDir(e.scratch); len(ents) > 1 {
		t.Errorf("scratch holds %d entries after the runs; only the binaries should remain", len(ents))
	}
}
