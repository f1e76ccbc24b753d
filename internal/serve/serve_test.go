package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/workload"
)

// The acceptance trio: figs 4.1 (16 cells: cg+noopt and cg per
// benchmark), 4.5 (8 cg cells — the same keys as 4.1's cg half) and
// 4.11 (8 cg+reset cells). 32 figure cells, 24 distinct: the sweep's
// plan folds the 8-cell gap before anything is submitted, so a session
// sees 24 cells, and what the shared cache and the in-flight dedup are
// measured by is the overlap between clients.
var trioFigs = []string{"4.1", "4.5", "4.11"}

const trioUnique = 24

func trioGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../experiments/testdata/sweep_4_1_4_5_4_11.golden")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newTestServer boots a full server — shared engine, shared store,
// progress lanes — on an httptest listener and returns a client for it
// and the server's progress ledger.
func newTestServer(t *testing.T) (*Server, *Client, *obs.Progress) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 4, Store: store})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Drain()
		srv.Wait()
		ts.Close()
	})
	return srv, &Client{Base: ts.URL}, srv.prog
}

// get fetches url and returns its status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// health reads /healthz at base.
func health(t *testing.T, base string) (int, Health) {
	t.Helper()
	code, body := get(t, base+"/healthz")
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz is not JSON: %v: %s", err, body)
	}
	return code, h
}

// TestDebugServerServesSnapshotAndPprof runs a Fig 4.1 sweep on the
// server and reads /progress after it: the engine's tape replays, the
// scheduler's cells and the client's lane all reach the one ledger the
// endpoint serves, beside the process's provenance. The pprof index
// answers on the same listener.
func TestDebugServerServesSnapshotAndPprof(t *testing.T) {
	_, cl, _ := newTestServer(t)
	if _, err := cl.Sweep(Spec{Client: "fig41", Figs: []string{"4.1"}}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, cl.Base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("GET /progress: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("progress snapshot is not JSON: %v", err)
	}
	if snap.Provenance.GoVersion == "" {
		t.Fatal("snapshot provenance missing")
	}
	// Fig 4.1 is 16 cells: cg+noopt and cg per benchmark. Three of its
	// eight rows are size-1 rows with a shipped tape (compress, javac,
	// mpegaudio), so 6 cells replay.
	p := snap.Progress
	if p.CellsTotal != 16 || p.CellsComputed != 16 {
		t.Errorf("cells total %d, computed %d, want 16 and 16", p.CellsTotal, p.CellsComputed)
	}
	if p.TapeReplays != 6 {
		t.Errorf("tape_replays = %d, want 6 (three seeded size-1 rows under two collectors)", p.TapeReplays)
	}
	if len(p.Lanes) != 1 || p.Lanes[0].Client != "fig41" || p.Lanes[0].Submitted != 16 || p.Lanes[0].Computed != 16 {
		t.Errorf("lanes = %+v, want one fig41 lane of 16 computed cells", p.Lanes)
	}

	if code, body := get(t, cl.Base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index = %d, does not list profiles: %.120s", code, body)
	}
}

// TestDebugServerHealthz pins the /healthz contract, read from the
// scheduler: 200 ok when idle, and once drained with a session still
// open a 503 draining with that session's cells in flight, which is how
// load balancers and the smoke scripts observe a draining server. The
// root listing advertises the endpoint.
func TestDebugServerHealthz(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One executor, held in the session's first delivery: the second
	// cell stays queued until the test lets the first go.
	srv := New(Config{Workers: 1, Store: store})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, h := health(t, ts.URL); code != http.StatusOK || h.Status != "ok" || h.Draining || h.InFlight != 0 {
		t.Fatalf("idle healthz = %d %+v, want 200 ok", code, h)
	}

	sess, err := srv.sched.OpenSession("open")
	if err != nil {
		t.Fatal(err)
	}
	w := workload.All()[0].Name
	jobs := []engine.Job{{Workload: w, Size: 1, Collector: "cg"}, {Workload: w, Size: 1, Collector: "msa"}}
	started, finish := make(chan struct{}), make(chan struct{})
	ran := make(chan error, 1)
	go func() {
		ran <- sess.Run(jobs, func(i int, _ results.Outcome) {
			if i == 0 {
				close(started)
				<-finish
			}
		})
	}()
	<-started
	for deadline := time.Now().Add(10 * time.Second); srv.sched.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second cell was never queued")
		}
	}
	srv.Drain()
	code, h := health(t, ts.URL)
	close(finish)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	sess.Close()
	srv.Wait()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", code)
	}
	if h.Status != "draining" || !h.Draining || h.InFlight != 1 {
		t.Fatalf("draining healthz body = %+v, want draining with 1 cell in flight", h)
	}

	if _, body := get(t, ts.URL+"/"); !strings.Contains(string(body), "/healthz") {
		t.Fatalf("root listing does not mention /healthz: %s", body)
	}
}

// TestServerSweepGolden is the satellite acceptance test: a sweep
// streamed through the server — spec encoding, scheduler, NDJSON
// events, client reassembly — is byte-identical to the seed capture of
// the batch cgsweep over the same figures.
func TestServerSweepGolden(t *testing.T) {
	_, cl, _ := newTestServer(t)
	var buf bytes.Buffer
	stats, err := cl.Sweep(Spec{Client: "golden", Figs: trioFigs}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := trioGolden(t); buf.String() != want {
		t.Errorf("server sweep diverged from the batch golden:\n--- got\n%s--- want\n%s", buf.String(), want)
	}
	// Cells counts what the session was handed — the plan's distinct
	// cells — and on a cold server all of them are computed.
	want := DoneStats{Cells: trioUnique, Computed: trioUnique}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	// The same sweep again computes nothing: every cell is a store hit.
	stats, err = cl.Sweep(Spec{Client: "golden", Figs: trioFigs}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (DoneStats{Cells: trioUnique, Stored: trioUnique}); stats != want {
		t.Errorf("warm stats = %+v, want %+v", stats, want)
	}
}

// TestConcurrentSweepsDedupInFlight is the exactly-once acceptance
// test: two clients run the identical sweep concurrently against one
// server. Both streams must be complete and byte-identical to the
// batch golden, and the server-wide computed counter must equal the
// number of *unique* cells — every overlapping cell executed once, no
// matter how the two sweeps interleaved (in-flight joins and store
// hits split the remainder between them, timing-dependently).
func TestConcurrentSweepsDedupInFlight(t *testing.T) {
	_, cl, prog := newTestServer(t)
	clients := []string{"alice", "bob"}
	outs := make([]bytes.Buffer, len(clients))
	stats := make([]DoneStats, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, name := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = cl.Sweep(Spec{Client: name, Figs: trioFigs}, &outs[i])
		}()
	}
	wg.Wait()

	golden := trioGolden(t)
	for i, name := range clients {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if outs[i].String() != golden {
			t.Errorf("%s's stream diverged from the batch golden:\n--- got\n%s", name, outs[i].String())
		}
		if got := stats[i]; got.Cells != trioUnique || got.Computed+got.Stored+got.Deduped != trioUnique {
			t.Errorf("%s stats do not partition: %+v", name, got)
		}
	}

	s := prog.Snapshot()
	if s.CellsComputed != trioUnique {
		t.Errorf("CellsComputed = %d, want %d (each unique cell computed exactly once)",
			s.CellsComputed, trioUnique)
	}
	if got := stats[0].Computed + stats[1].Computed; got != trioUnique {
		t.Errorf("session computed counts sum to %d, want %d", got, trioUnique)
	}
	if got := s.CellsStored + s.CellsDeduped; got != trioUnique {
		t.Errorf("stored+deduped = %d, want %d (one client's worth of cells rode along)", got, trioUnique)
	}
	// Every computed cell ran on an executor lane /progress shows.
	var done int64
	for _, w := range s.Workers {
		done += w.Done
	}
	if done != s.CellsComputed {
		t.Errorf("executor lanes %+v did %d cells, want cells_computed = %d", s.Workers, done, s.CellsComputed)
	}
	if len(s.Lanes) != len(clients) {
		t.Fatalf("lanes = %+v, want one per client", s.Lanes)
	}
	for i, lane := range s.Lanes {
		if lane.Client != clients[i] {
			t.Errorf("lane %d is %q, want %q (sorted)", i, lane.Client, clients[i])
		}
		if lane.Submitted != trioUnique || lane.Computed+lane.Stored+lane.Deduped != trioUnique {
			t.Errorf("lane %s does not partition: %+v", lane.Client, lane)
		}
	}
}

// TestCellEndpointETag pins the cache semantics of GET /cell/{key}: the
// key's hash is a permanently valid strong ETag (If-None-Match answers
// 304 even for cells never computed — the key alone determines the
// bytes), a stored cell serves its immutable JSON, and an unknown cell
// without a conditional is a 404.
func TestCellEndpointETag(t *testing.T) {
	_, cl, _ := newTestServer(t)
	bench := workload.All()[0].Name
	cell := CellSpec{Workload: bench, Size: 1, Collector: "cg"}

	var buf bytes.Buffer
	if _, err := cl.Sweep(Spec{Cells: []CellSpec{cell}}, &buf); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	o, err := results.Decode([]byte(line))
	if err != nil {
		t.Fatalf("streamed outcome line does not decode: %v\n%s", err, line)
	}
	if o.Job.Workload != bench {
		t.Fatalf("streamed outcome is for %q, want %q", o.Job.Workload, bench)
	}

	key, err := results.Key(cell.Job())
	if err != nil {
		t.Fatal(err)
	}
	cellURL := cl.Base + "/cell/" + url.PathEscape(key)
	etag := `"` + results.KeyHash(key) + `"`

	resp, err := http.Get(cellURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cell: %s", resp.Status)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("ETag = %s, want %s", got, etag)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("Cache-Control = %q, want immutable", cc)
	}

	req, _ := http.NewRequest(http.MethodGet, cellURL, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp2.Status)
	}

	// The 304 needs only the key, not the store: a valid key that was
	// never computed still revalidates, while a plain GET of it is 404.
	otherKey, err := results.Key(engine.Job{Workload: bench, Size: 2, Collector: "cg"})
	if err != nil {
		t.Fatal(err)
	}
	otherURL := cl.Base + "/cell/" + url.PathEscape(otherKey)
	req, _ = http.NewRequest(http.MethodGet, otherURL, nil)
	req.Header.Set("If-None-Match", `"`+results.KeyHash(otherKey)+`"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET of uncomputed cell = %s, want 304", resp3.Status)
	}
	resp4, err := http.Get(otherURL)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of uncomputed cell = %s, want 404", resp4.Status)
	}
}

// TestBadSpecIsRejectedAtAdmission pins the 400 path: an unknown
// figure and an unknown collector both fail before any cell runs, with
// no stream started.
func TestBadSpecIsRejectedAtAdmission(t *testing.T) {
	_, cl, prog := newTestServer(t)
	for _, spec := range []Spec{
		{Figs: []string{"4.99"}},
		{Cells: []CellSpec{{Workload: workload.All()[0].Name, Size: 1, Collector: "not-a-collector"}}},
	} {
		if _, err := cl.Sweep(spec, &bytes.Buffer{}); err == nil ||
			!strings.Contains(err.Error(), "400") {
			t.Errorf("spec %+v: err = %v, want 400", spec, err)
		}
	}
	if s := prog.Snapshot(); s.CellsTotal != 0 {
		t.Errorf("rejected specs submitted cells: %+v", s)
	}
}

// TestOffGridSizeIsRejectedAtAdmission: a cell's size is 1, 10 or 100,
// the grid's sizes. Any other is a 400 before anything runs.
func TestOffGridSizeIsRejectedAtAdmission(t *testing.T) {
	_, cl, prog := newTestServer(t)
	w := workload.All()[0].Name
	for _, size := range []int{2, 0, -1, 1000} {
		spec := Spec{Cells: []CellSpec{{Workload: w, Size: size, Collector: "cg"}}}
		if _, err := cl.Sweep(spec, &bytes.Buffer{}); err == nil ||
			!strings.Contains(err.Error(), "400") {
			t.Errorf("size %d: err = %v, want 400", size, err)
		}
	}
	if s := prog.Snapshot(); s.CellsTotal != 0 || s.CellsComputed != 0 || s.TapeReplays != 0 {
		t.Errorf("rejected specs reached the pipeline: %+v", s)
	}
}

// TestRepeatsOutOfRangeAreRejectedAtAdmission: a cell asks for 0 to
// maxRepeats runs. A count outside that is a 400 before anything runs,
// so no client can hold an executor with one huge Repeats; the bound
// itself is admitted.
func TestRepeatsOutOfRangeAreRejectedAtAdmission(t *testing.T) {
	_, cl, prog := newTestServer(t)
	w := workload.All()[0].Name
	for _, reps := range []int{-1, maxRepeats + 1, 1000000000} {
		spec := Spec{Cells: []CellSpec{{Workload: w, Size: 1, Collector: "cg", Repeats: reps}}}
		if _, err := cl.Sweep(spec, &bytes.Buffer{}); err == nil ||
			!strings.Contains(err.Error(), "400") {
			t.Errorf("repeats %d: err = %v, want 400", reps, err)
		}
	}
	if s := prog.Snapshot(); s.CellsTotal != 0 || s.CellsComputed != 0 {
		t.Errorf("rejected specs reached the pipeline: %+v", s)
	}
	spec := Spec{Cells: []CellSpec{{Workload: w, Size: 1, Collector: "cg", Repeats: maxRepeats}}}
	if _, err := cl.Sweep(spec, &bytes.Buffer{}); err != nil {
		t.Fatalf("repeats %d: %v", maxRepeats, err)
	}
	if s := prog.Snapshot(); s.CellsComputed != 1 {
		t.Errorf("repeats %d: %d cells computed, want 1", maxRepeats, s.CellsComputed)
	}
}

// TestDrainFinishesStreamsAndRefusesNew pins the graceful-shutdown
// contract: after Drain, new sweeps get 503 and health reports
// draining, but a session admitted before the drain runs to completion
// — every cell delivered, Wait returning only after it closed.
func TestDrainFinishesStreamsAndRefusesNew(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Store: store})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sess, err := srv.sched.OpenSession("early")
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()

	if code, h := health(t, ts.URL); code != http.StatusServiceUnavailable || !h.Draining || h.Status != "draining" {
		t.Fatalf("health after drain = %d %+v", code, h)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(`{"figs":["4.1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /sweep while draining = %s, want 503", resp.Status)
	}
	if _, err := srv.sched.OpenSession("late"); !errors.Is(err, results.ErrDraining) {
		t.Fatalf("OpenSession while draining = %v, want ErrDraining", err)
	}

	// The pre-drain session still completes its sweep in full.
	jobs := []engine.Job{{Workload: workload.All()[0].Name, Size: 1, Collector: "cg"}}
	delivered := 0
	if err := sess.Run(jobs, func(i int, o results.Outcome) {
		if err := o.Failed(); err != nil {
			t.Errorf("cell %d failed during drain: %v", i, err)
		}
		delivered++
	}); err != nil {
		t.Fatal(err)
	}
	if delivered != len(jobs) {
		t.Fatalf("delivered %d of %d cells during drain", delivered, len(jobs))
	}
	sess.Close()

	done := make(chan struct{})
	go func() {
		srv.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait did not return after the last session closed")
	}
	if _, h := health(t, ts.URL); h.InFlight != 0 {
		t.Fatalf("in-flight after drain completed = %d", h.InFlight)
	}
}

// TestSweepMethodAndBodyErrors pins the non-stream error statuses.
func TestSweepMethodAndBodyErrors(t *testing.T) {
	_, cl, _ := newTestServer(t)
	resp, err := http.Get(cl.Base + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep = %s, want 405", resp.Status)
	}
	resp, err = http.Post(cl.Base+"/sweep", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST bad body = %s, want 400", resp.Status)
	}
}

// TestClientTruncationDetected pins the client's drain observability: a
// stream that ends without a done event is an error, never a silently
// short table.
func TestClientTruncationDetected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "{\"data\":\"partial row\"}\n")
	}))
	defer ts.Close()
	var buf bytes.Buffer
	_, err := (&Client{Base: ts.URL}).Sweep(Spec{Figs: []string{"4.1"}}, &buf)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation error", err)
	}
	if buf.String() != "partial row" {
		t.Fatalf("partial data not delivered before the error: %q", buf.String())
	}
}

// TestClientRefusesLongEventLine: the client reads one NDJSON event at
// a time into memory, so a line is bounded like the spec the server
// reads. A well-formed 2 MiB data event followed by done is refused
// with a serve: error, not written through.
func TestClientRefusesLongEventLine(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"data\":%q}\n", strings.Repeat("x", 2<<20))
		fmt.Fprint(w, "{\"done\":{\"cells\":1,\"computed\":1}}\n")
	}))
	defer ts.Close()
	var buf bytes.Buffer
	_, err := (&Client{Base: ts.URL}).Sweep(Spec{Figs: []string{"4.1"}}, &buf)
	if err == nil || !strings.HasPrefix(err.Error(), "serve: ") || !strings.Contains(err.Error(), fmt.Sprint(maxLine)) {
		t.Fatalf("err = %v, want a serve: error naming the %d-byte bound", err, maxLine)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of the long event written through", buf.Len())
	}
}
