package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestMain doubles as the worker executable for the multi-process
// tests: re-exec'd with DIST_WORKER_TEST=1, the test binary serves the
// protocol on its real stdin/stdout exactly like cmd/cgworker.
func TestMain(m *testing.M) {
	if os.Getenv("DIST_WORKER_TEST") == "1" {
		if err := Serve(os.Stdin, os.Stdout, engine.New(2)); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const panicWorkload = "panicky-dist"

func init() {
	workload.Register(workload.Spec{
		Name:      panicWorkload,
		Desc:      "panics mid-stream (test fixture)",
		Threads:   func(int) int { return 1 },
		HeapBytes: func(int) int { return 1 << 20 },
		Run: func(rt *vm.Runtime, size int) {
			cls := rt.Heap.DefineClass(heap.Class{Name: "panicky.Obj", Data: 8})
			rt.NewThread(1).CallVoid(1, func(f *vm.Frame) {
				f.MustNew(cls)
				panic("synthetic mid-stream failure")
			})
		},
	})
}

func smallJobs() []engine.Job {
	return []engine.Job{
		{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
		{Workload: "db", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
		{Workload: "jess", Size: 1, Collector: "msa", HeapBytes: engine.TightHeap},
		{Workload: "compress", Size: 1, Collector: "cg+noopt", HeapBytes: engine.TightHeap},
		{Workload: "raytrace", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
		{Workload: "jack", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
	}
}

// collect runs a backend and asserts the emission contract (each index
// once, strictly increasing).
func collect(t *testing.T, b results.Backend, jobs []engine.Job) []results.Outcome {
	t.Helper()
	var got []results.Outcome
	err := b.Run(jobs, func(i int, o results.Outcome) {
		if i != len(got) {
			t.Fatalf("emit index %d out of order (have %d)", i, len(got))
		}
		got = append(got, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("emitted %d of %d outcomes", len(got), len(jobs))
	}
	return got
}

// stripElapsed zeroes the wall-clock and provenance fields — the only
// nondeterminism an Outcome carries. The cycle extract's object counts
// (Cycles/Marked/Freed) are deterministic and stay in the comparison;
// its nanosecond fields and pause histogram are measurements and do
// not.
func stripElapsed(outs []results.Outcome) []results.Outcome {
	out := append([]results.Outcome(nil), outs...)
	for i := range out {
		out[i].Elapsed = 0
		out[i].Prov = nil
		if o := out[i].Obs; o != nil {
			s := *o
			s.PauseNS, s.MarkNS, s.SweepNS, s.MaxPauseNS = 0, 0, 0, 0
			s.Pause = obs.Histogram{}
			out[i].Obs = &s
		}
	}
	return out
}

// TestCoordinatorMatchesLocal is the determinism core: a 3-worker
// multi-connection coordinator run produces the same outcomes, in the
// same order, as the in-process backend.
func TestCoordinatorMatchesLocal(t *testing.T) {
	jobs := smallJobs()
	local := collect(t, results.Local{Eng: engine.New(1)}, jobs)
	coord := collect(t, &Coordinator{Spawn: InProcess(2), Procs: 3}, jobs)
	if !reflect.DeepEqual(stripElapsed(local), stripElapsed(coord)) {
		t.Fatal("coordinator outcomes diverged from the in-process backend")
	}
}

// TestCoordinatorSurvivesPanickingWorkload is the dist half of the
// failure contract: a cell whose workload panics on a worker process
// yields its slot as an error result — not a retry, not a wedge.
func TestCoordinatorSurvivesPanickingWorkload(t *testing.T) {
	jobs := []engine.Job{
		{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
		{Workload: panicWorkload, Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg", HeapBytes: engine.TightHeap},
	}
	done := make(chan []results.Outcome, 1)
	go func() {
		var got []results.Outcome
		c := &Coordinator{Spawn: InProcess(2), Procs: 2}
		if err := c.Run(jobs, func(i int, o results.Outcome) { got = append(got, o) }); err != nil {
			t.Error(err)
		}
		done <- got
	}()
	var got []results.Outcome
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator wedged on a panicking workload")
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(got), len(jobs))
	}
	if got[1].Err == "" || !strings.Contains(got[1].Err, "panicked") {
		t.Fatalf("panicking cell yielded %q, want a panic error", got[1].Err)
	}
	if got[0].Err != "" || got[2].Err != "" {
		t.Fatalf("healthy cells errored: %q / %q", got[0].Err, got[2].Err)
	}
}

// flakySpawner wraps InProcess but the first worker's connection dies
// after its first result: the coordinator must requeue that worker's
// in-flight cells onto the survivors.
func flakySpawner(t *testing.T) Spawner {
	inner := InProcess(1)
	var spawned atomic.Int32
	return func(id int) (*Conn, error) {
		conn, err := inner(id)
		if err != nil {
			return nil, err
		}
		if spawned.Add(1) > 1 {
			return conn, nil
		}
		// First worker: relay exactly one result line, then snap both pipes.
		relayR, relayW := io.Pipe()
		go func() {
			br := bufio.NewReader(conn.R)
			for lines := 0; lines < 2; lines++ { // hello + first result
				line, err := br.ReadString('\n')
				if err != nil {
					break
				}
				if _, err := relayW.Write([]byte(line)); err != nil {
					break
				}
			}
			relayW.CloseWithError(fmt.Errorf("synthetic worker death"))
			conn.W.Close()
		}()
		return &Conn{W: conn.W, R: relayR}, nil
	}
}

func TestCoordinatorRetriesCellsOfDeadWorker(t *testing.T) {
	jobs := smallJobs()
	got := collect(t, &Coordinator{Spawn: flakySpawner(t), Procs: 3}, jobs)
	want := collect(t, results.Local{Eng: engine.New(1)}, jobs)
	if !reflect.DeepEqual(stripElapsed(want), stripElapsed(got)) {
		t.Fatal("retried run diverged from the in-process backend")
	}
}

// poisonSpawner's workers speak the protocol correctly but drop dead
// the moment they are handed the job `poison` — on every worker, so the
// cell exhausts its attempts.
func poisonSpawner(poison engine.Job) Spawner {
	return func(id int) (*Conn, error) {
		jobR, jobW := io.Pipe()
		resR, resW := io.Pipe()
		go func() {
			enc := json.NewEncoder(resW)
			enc.Encode(response{Type: "hello", Proto: protoVersion, Capacity: 1})
			dec := json.NewDecoder(jobR)
			for {
				var req request
				if err := dec.Decode(&req); err != nil {
					resW.Close()
					return
				}
				if req.Job == poison {
					resW.CloseWithError(fmt.Errorf("synthetic poison death"))
					jobR.Close()
					return
				}
				o := results.Extract(engine.Exec(req.Job))
				enc.Encode(response{Type: "result", ID: req.ID, Outcome: &o})
			}
		}()
		return &Conn{W: jobW, R: resR}, nil
	}
}

func TestCoordinatorCapsRetriesWithErrorOutcome(t *testing.T) {
	jobs := smallJobs()
	const poison = 2
	var got []results.Outcome
	c := &Coordinator{Spawn: poisonSpawner(jobs[poison]), Procs: 4}
	err := c.Run(jobs, func(i int, o results.Outcome) { got = append(got, o) })
	if err != nil {
		t.Fatalf("run must complete with an error outcome, got: %v", err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(got), len(jobs))
	}
	if got[poison].Err == "" || !strings.Contains(got[poison].Err, "transport") {
		t.Fatalf("poisoned cell yielded %q, want a capped-retry transport error", got[poison].Err)
	}
	for i, o := range got {
		if i != poison && o.Err != "" {
			t.Fatalf("healthy cell %d errored: %q", i, o.Err)
		}
	}
}

// deadSpawner never produces a working worker.
func deadSpawner(id int) (*Conn, error) {
	return nil, fmt.Errorf("synthetic spawn failure")
}

func TestCoordinatorReportsTotalWorkerLoss(t *testing.T) {
	jobs := smallJobs()[:2]
	c := &Coordinator{Spawn: deadSpawner, Procs: 2}
	err := c.Run(jobs, func(int, results.Outcome) {})
	if err == nil || !strings.Contains(err.Error(), "never completed") {
		t.Fatalf("total worker loss must fail the batch, got: %v", err)
	}
}

// TestFullStoreSpawnsNoWorker pins the transport's laziness: workers
// spawn on the first Exec, all of them, and a resume over a store that
// holds every cell never calls Exec — so it forks nothing.
func TestFullStoreSpawnsNoWorker(t *testing.T) {
	st, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallJobs()
	run := func() (results.SessionStats, int32) {
		var spawns atomic.Int32
		inner := InProcess(1)
		c := &Coordinator{Procs: 2, Spawn: func(id int) (*Conn, error) {
			spawns.Add(1)
			return inner(id)
		}}
		defer c.Close()
		s := results.NewScheduler(c, st, nil, 2)
		sess, err := s.OpenSession("")
		if err != nil {
			t.Fatal(err)
		}
		collect(t, sess, jobs)
		sess.Close()
		s.Wait()
		return sess.Stats(), spawns.Load()
	}
	n := int64(len(jobs))
	if cold, spawns := run(); cold.Computed != n || spawns != 2 {
		t.Fatalf("cold run: %d of %d cells computed on %d spawned workers, want all on 2", cold.Computed, n, spawns)
	}
	if warm, spawns := run(); warm.Stored != n || spawns != 0 {
		t.Fatalf("resume over a full store: %d of %d cells stored, %d workers spawned, want all and 0", warm.Stored, n, spawns)
	}
}

// TestRealWorkerProcesses exercises the actual fork/exec path: the test
// binary re-execs itself as two protocol-serving worker processes (see
// TestMain) and the coordinator merges their results.
func TestRealWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("fork/exec in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(id int) (*Conn, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DIST_WORKER_TEST=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &Conn{W: stdin, R: stdout, Close: cmd.Wait}, nil
	}
	jobs := smallJobs()
	got := collect(t, &Coordinator{Spawn: spawn, Procs: 2}, jobs)
	want := collect(t, results.Local{Eng: engine.New(1)}, jobs)
	if !reflect.DeepEqual(stripElapsed(want), stripElapsed(got)) {
		t.Fatal("multi-process outcomes diverged from the in-process backend")
	}
}

// TestServeIsOneSchedulerSession drives the worker side over in-memory
// pipes: it says hello with its capacity, answers every job once, by
// id, with that job's outcome, and returns when the coordinator hangs
// up. Its name predates the worker running each job straight on the
// engine; it was one session of a scheduler of its own.
func TestServeIsOneSchedulerSession(t *testing.T) {
	jobs := smallJobs()
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- Serve(jobR, resW, engine.New(2))
		resW.Close()
	}()
	go func() {
		enc := json.NewEncoder(jobW)
		for i, job := range jobs {
			enc.Encode(request{Type: "job", ID: i, Job: job})
		}
		jobW.Close()
	}()

	dec := json.NewDecoder(resR)
	var hello response
	if err := dec.Decode(&hello); err != nil || hello.Type != "hello" || hello.Capacity != 2 {
		t.Fatalf("hello = %+v, %v; want capacity 2", hello, err)
	}
	answered := make(map[int]bool)
	for range jobs {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Type != "result" || resp.Outcome == nil || answered[resp.ID] {
			t.Fatalf("bad or repeated answer %+v", resp)
		}
		if o := resp.Outcome; o.Err != "" || o.Job != jobs[resp.ID] {
			t.Fatalf("job %d answered with %+v", resp.ID, o)
		}
		answered[resp.ID] = true
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
