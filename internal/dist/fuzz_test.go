package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/results"
)

// gate is a fuzzed worker's stdin and the back half of its stdout: what
// the coordinator writes is discarded, and the first write (or Close)
// lets rest be read, as a real worker answers only what it was sent.
type gate struct {
	once sync.Once
	open chan struct{}
	rest io.Reader
}

func (g *gate) Write(p []byte) (int, error) { g.Close(); return len(p), nil }

func (g *gate) Close() error {
	g.once.Do(func() { close(g.open) })
	return nil
}

func (g *gate) Read(p []byte) (int, error) {
	<-g.open
	return g.rest.Read(p)
}

// FuzzCoordinatorFrames: a worker's stdout is input (a stale or foreign
// cgworker on $PATH), so one Exec over a worker that prints the fuzz
// bytes must return and never panic, and an outcome without Err must
// carry the job it was asked for. When the first line is a JSON value,
// the rest is held back until the job is sent, so a result for cell 0
// always finds its request.
func FuzzCoordinatorFrames(f *testing.F) {
	job := engine.Job{Workload: "compress", Size: 1, Collector: "cg"}
	line := func(r response) string {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	result := func(id int, j engine.Job) string {
		return line(response{Type: "result", ID: id, Outcome: &results.Outcome{Job: j}})
	}
	hello := line(response{Type: "hello", Proto: protoVersion, Capacity: 1})
	other := job
	other.Collector = "msa"
	f.Add([]byte(hello + result(0, job)))
	f.Add([]byte(line(response{Type: "hello", Proto: protoVersion - 1, Capacity: 1}) + result(0, job)))
	f.Add([]byte(hello + result(7, job)))
	f.Add([]byte(hello + result(0, other)))
	f.Add([]byte(hello + result(0, job)[:20]))
	f.Fuzz(func(t *testing.T, out []byte) {
		i := bytes.IndexByte(out, '\n') + 1
		g := &gate{open: make(chan struct{}), rest: bytes.NewReader(out[i:])}
		if i == 0 || !json.Valid(out[:i-1]) {
			i = 0
			g.rest = bytes.NewReader(out)
			g.Close()
		}
		head := out[:i]
		c := &Coordinator{Procs: 1, Spawn: func(int) (*Conn, error) {
			return &Conn{W: g, R: io.MultiReader(bytes.NewReader(head), g)}, nil
		}}
		defer c.Close()
		if o := c.Exec(0, job); o.Err == "" && o.Job != job {
			t.Fatalf("Exec(%+v) returned an outcome for %+v", job, o.Job)
		}
	})
}
