package results

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func exec(t *testing.T, job engine.Job) Outcome {
	t.Helper()
	o := Extract(engine.Exec(job))
	if o.Err != "" {
		t.Fatalf("Exec(%+v): %s", job, o.Err)
	}
	return o
}

func TestCodecRoundTripsTypedPayloads(t *testing.T) {
	jobs := []engine.Job{
		{Workload: "compress", Size: 1, Collector: "cg+recycle", HeapBytes: engine.TightHeap},
		{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: engine.TightHeap},
		{Workload: "compress", Size: 1, Collector: "gen", HeapBytes: engine.TightHeap},
		{Workload: "compress", Size: 1, Collector: "none"},
	}
	for _, job := range jobs {
		o := exec(t, job)
		if o.Arena == nil || o.Arena.Capacity <= 0 || o.Arena.HeapBytes > o.Arena.Capacity {
			t.Fatalf("Extract(%s) arena occupancy missing or inconsistent: %+v", job.Collector, o.Arena)
		}
		line, err := Encode(o)
		if err != nil {
			t.Fatalf("Encode(%s): %v", job.Collector, err)
		}
		if bytes.Count(line, []byte("\n")) != 1 || line[len(line)-1] != '\n' {
			t.Fatalf("Encode(%s) is not one NDJSON line: %q", job.Collector, line)
		}
		back, err := Decode(line)
		if err != nil {
			t.Fatalf("Decode(%s): %v", job.Collector, err)
		}
		if !reflect.DeepEqual(o, back) {
			t.Fatalf("round trip diverged for %s:\n%+v\n%+v", job.Collector, o, back)
		}
	}
}

func TestCodecCanonicalisesSpecs(t *testing.T) {
	job := engine.Job{Workload: "compress", Size: 1, Collector: "cg-recycle", HeapBytes: engine.TightHeap}
	o := exec(t, job)
	line, err := Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	if back.Job.Collector != "cg+recycle" {
		t.Fatalf("decoded spec %q, want canonical %q", back.Job.Collector, "cg+recycle")
	}
}

func TestDecodeRejectsBadCells(t *testing.T) {
	for name, line := range map[string]string{
		"garbage":       "{not json",
		"unknown spec":  `{"job":{"Workload":"compress","Size":1,"Collector":"quantum"},"payload":{"kind":"none"}}`,
		"kind mismatch": `{"job":{"Workload":"compress","Size":1,"Collector":"cg"},"payload":{"kind":"cg"}}`,
		"unknown kind":  `{"job":{"Workload":"compress","Size":1,"Collector":"cg"},"payload":{"kind":"warp"}}`,
	} {
		if _, err := Decode([]byte(line)); err == nil {
			t.Fatalf("%s: Decode must error", name)
		}
	}
}

func TestKeyIdentity(t *testing.T) {
	base := engine.Job{Workload: "compress", Size: 1, Collector: "cg"}
	k1, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	// Alias spellings and default repeats collapse to the same cell.
	alias := base
	alias.Collector = "cg"
	alias.Repeats = 1
	if k2, _ := Key(alias); k2 != k1 {
		t.Fatalf("Repeats 0 and 1 keyed differently:\n%s\n%s", k1, k2)
	}
	spelled := base
	spelled.Collector = "cg+recycle"
	k3, _ := Key(spelled)
	spelled.Collector = "cg-recycle"
	if k4, _ := Key(spelled); k4 != k3 {
		t.Fatalf("alias keyed differently:\n%s\n%s", k3, k4)
	}
	// Every identity-bearing field separates cells.
	for _, vary := range []func(*engine.Job){
		func(j *engine.Job) { j.Workload = "db" },
		func(j *engine.Job) { j.Size = 10 },
		func(j *engine.Job) { j.Collector = "cg+noopt" },
		func(j *engine.Job) { j.HeapBytes = engine.TightHeap },
		func(j *engine.Job) { j.GCEvery = 100 },
		func(j *engine.Job) { j.Repeats = 3 },
	} {
		j := base
		vary(&j)
		k, err := Key(j)
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Fatalf("distinct cell %+v collided with base key %s", j, k1)
		}
	}
	if _, err := Key(engine.Job{Workload: "nosuch", Size: 1, Collector: "cg"}); err == nil {
		t.Fatal("unknown workload must not key")
	}
}

func TestStorePutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap}
	if _, ok, err := st.Get(job); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	o := exec(t, job)
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(job)
	if !ok || err != nil {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(o, got) {
		t.Fatalf("stored cell diverged:\n%+v\n%+v", o, got)
	}
	// The alias spelling hits the same cell.
	aliased := job
	aliased.Collector = "cg"
	if _, ok, _ := st.Get(aliased); !ok {
		t.Fatal("canonical respelling missed the stored cell")
	}
	if n, err := st.Len(); n != 1 || err != nil {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestStoreSkipsFailedOutcomes(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Workload: "compress", Size: 1, Collector: "cg"}
	if err := st.Put(Outcome{Job: job, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(job); ok {
		t.Fatal("failed outcome must not be stored")
	}
}

func TestStoreTornWriteReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap}
	if err := st.Put(exec(t, job)); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte(`{"trunc`), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := st.Get(job); ok || err == nil {
		t.Fatalf("torn cell: ok=%v err=%v, want miss with error", ok, err)
	}
}

func TestSinkStreamsRowsInIndexOrder(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, "T", 3, "a", "bb")
	header := buf.String()
	if !strings.Contains(header, "T\n") || !strings.Contains(header, "a ") {
		t.Fatalf("header not written eagerly: %q", header)
	}
	s.Row(2, "z", 3)
	if strings.Contains(buf.String(), "z") {
		t.Fatal("row 2 rendered before rows 0-1")
	}
	s.Row(0, "x", 1)
	if !strings.Contains(buf.String(), "x") {
		t.Fatal("row 0 must render immediately")
	}
	s.Row(1, "y", 2.5)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "T\na  bb\n-----\nx  1 \ny  2.50\nz  3 \n"
	if buf.String() != want {
		t.Fatalf("sink rendered:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestSinkFlushReportsMissingRows(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, "", 2, "h")
	s.Row(0, "only")
	if err := s.Flush(); err == nil {
		t.Fatal("missing row must fail Flush")
	}
}

func TestSinkConcurrentRows(t *testing.T) {
	var buf bytes.Buffer
	const n = 64
	s := NewSink(&buf, "", n, "i")
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Row(i, i)
		}(i)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	rows := lines[2:] // header + rule
	for i, l := range rows {
		if strings.TrimSpace(l) != strconv.Itoa(i) {
			t.Fatalf("row %d rendered as %q", i, l)
		}
	}
}

func TestLocalBackendEmitsInOrder(t *testing.T) {
	jobs := []engine.Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg"},
		{Workload: "nosuch", Size: 1, Collector: "cg"},
		{Workload: "jess", Size: 1, Collector: "msa"},
	}
	var got []Outcome
	err := Local{Eng: engine.New(4)}.Run(jobs, func(i int, o Outcome) {
		if i != len(got) {
			t.Fatalf("emit index %d out of order (have %d)", i, len(got))
		}
		got = append(got, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("emitted %d outcomes, want %d", len(got), len(jobs))
	}
	if got[2].Err == "" {
		t.Fatal("bad cell must carry its error")
	}
	if got[0].Payload.Kind != "cg" || got[3].Payload.Kind != "msa" {
		t.Fatalf("payload kinds %q/%q", got[0].Payload.Kind, got[3].Payload.Kind)
	}
}

func TestResumingComputesOnlyMissingCells(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []engine.Job{
		{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
		{Workload: "db", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
		{Workload: "jess", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
	}
	run := func() (*Resuming, []Outcome) {
		r := &Resuming{Store: st, Next: Local{Eng: engine.New(2)}}
		var got []Outcome
		if err := r.Run(jobs, func(i int, o Outcome) {
			if i != len(got) {
				t.Fatalf("emit index %d out of order", i)
			}
			got = append(got, o)
		}); err != nil {
			t.Fatal(err)
		}
		return r, got
	}

	r1, cold := run()
	if s, c := r1.Stats(); s != 0 || c != len(jobs) {
		t.Fatalf("cold run: stored=%d computed=%d", s, c)
	}
	// The resumed run must recompute zero already-stored cells.
	r2, warm := run()
	if s, c := r2.Stats(); s != len(jobs) || c != 0 {
		t.Fatalf("resumed run: stored=%d computed=%d, want %d/0", s, c, len(jobs))
	}
	// Only the delivery mark tells the two runs apart.
	stripElapsed := func(os []Outcome, wantStored bool) []Outcome {
		out := append([]Outcome(nil), os...)
		for i := range out {
			if out[i].Stored != wantStored {
				t.Errorf("outcome %d: Stored = %v, want %v", i, out[i].Stored, wantStored)
			}
			out[i].Elapsed, out[i].Stored = 0, false
		}
		return out
	}
	if !reflect.DeepEqual(stripElapsed(cold, false), stripElapsed(warm, true)) {
		t.Fatal("resumed outcomes diverged from cold outcomes")
	}

	// Kill-and-restart: lose one stored cell, resume recomputes just it.
	lost, _ := Key(jobs[1])
	if err := os.Remove(st.path(lost)); err != nil {
		t.Fatal(err)
	}
	r3, _ := run()
	if s, c := r3.Stats(); s != len(jobs)-1 || c != 1 {
		t.Fatalf("partial resume: stored=%d computed=%d, want %d/1", s, c, len(jobs)-1)
	}
}

// TestPackedIsASpellingOfCG: "cg+packed" stays a collector spec — stored
// keys and the benchmark's cell matrix spell it — but §3.5's packed word
// is the one layout CG has, so the two specs must extract the same
// outcome from every workload, with and without collection cycles.
func TestPackedIsASpellingOfCG(t *testing.T) {
	for _, s := range workload.All() {
		for _, job := range []engine.Job{
			{Workload: s.Name, Size: 10},
			{Workload: s.Name, Size: 10, HeapBytes: engine.TightHeap, GCEvery: 700},
		} {
			job.Collector = "cg"
			plain := exec(t, job)
			job.Collector = "cg+packed"
			packed := exec(t, job)
			if plain.Payload.CG == nil || plain.Payload.CG.Stats.Created == 0 {
				t.Fatalf("%s: cg extracted no payload: %+v", s.Name, plain.Payload)
			}
			if job.GCEvery != 0 && plain.GCCycles == 0 {
				t.Fatalf("%s: the cycling cell ran no cycle", s.Name)
			}
			if !reflect.DeepEqual(plain.Payload, packed.Payload) || plain.GCCycles != packed.GCCycles ||
				plain.Instr != packed.Instr || !reflect.DeepEqual(plain.Arena, packed.Arena) {
				t.Fatalf("%s (heap %d, gc every %d): cg and cg+packed diverge:\n%+v %+v\n%+v %+v",
					s.Name, job.HeapBytes, job.GCEvery, plain.Payload.CG, plain.Arena, packed.Payload.CG, packed.Arena)
			}
		}
	}
}
