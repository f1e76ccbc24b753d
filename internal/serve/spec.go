// Package serve is the sweep server: the long-lived, multi-client
// counterpart of the batch cgsweep pipeline. Clients POST a sweep Spec
// and rows stream back as NDJSON events the moment cells complete —
// in the same index order, and byte for byte the same rendered bytes,
// as a local batch run of the same figures. Every client is a session
// of one results.Scheduler — the cell pipeline batch cgsweep runs on —
// over one shared engine and one shared content-addressed store:
//
//   - the store is the shared cache (a cell any client ever computed is
//     a disk hit for every later client, and its key doubles as an
//     HTTP ETag on GET /cell/{key});
//   - the scheduler's in-flight dedup makes two concurrent clients
//     asking for overlapping grids execute each overlapping cell
//     exactly once while both streams receive it;
//   - admission is one executor per engine worker (cgserve's -workers),
//     and executors take the next cell from each client's queue in
//     turn, so one huge sweep cannot starve small ones.
//
// Determinism survives the sharing: a cell's outcome is a pure function
// of its key, emission per client is index-ordered (the results.Backend
// contract), and rendering is the same experiments.Sweep the batch CLI
// uses — so a streamed sweep is byte-identical to a local one no matter
// how many other clients the server is juggling.
package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/results"
)

// Spec is the POST /sweep request body: which cells the client wants
// and how the stream should be attributed. Figs and Cells may be
// combined; both empty means every demographic figure, matching batch
// cgsweep's default.
type Spec struct {
	// Client names the submitting client for the /progress fairness
	// lanes, which the scheduler credits per session. Empty is anonymous:
	// the sweep still gets its own fair scheduling queue (queues are
	// per-session), it just doesn't appear as a named lane.
	Client string `json:"client,omitempty"`
	// Figs lists demographic figure ids ("4.1", "A.2", ...) to render
	// as streamed table rows.
	Figs []string `json:"figs,omitempty"`
	// Cells lists explicit raw cells; each streams back as one NDJSON
	// outcome event (the results.Encode line) in submission order.
	Cells []CellSpec `json:"cells,omitempty"`
}

// CellSpec is one explicit cell of a Cells sweep, mirroring engine.Job
// field for field (sizes, collector specs, gc-every, heap budget).
type CellSpec struct {
	Workload  string `json:"workload"`
	Size      int    `json:"size"`
	Collector string `json:"collector"`
	GCEvery   uint64 `json:"gc_every,omitempty"`
	HeapBytes int    `json:"heap_bytes,omitempty"`
	Repeats   int    `json:"repeats,omitempty"`
}

// Job converts the cell spec to its engine job.
func (c CellSpec) Job() engine.Job {
	return engine.Job{
		Workload: c.Workload, Size: c.Size, Collector: c.Collector,
		GCEvery: c.GCEvery, HeapBytes: c.HeapBytes, Repeats: c.Repeats,
	}
}

// maxRepeats is the most repeats one cell may ask for: the 20 runs a
// size-1 timing figure averages, the most any figure uses.
const maxRepeats = 20

// Jobs validates every explicit cell against the registries (a bad
// workload or collector spec is a 400 at admission, not a mid-stream
// error event) and returns the job list. A cell's size must be one of
// SPEC's 1, 10 and 100, and its repeats must lie in [0, maxRepeats]: a
// cell's run time grows with both, so an open axis would let a client
// hold an executor for as long as it likes.
func (s Spec) Jobs() ([]engine.Job, error) {
	if len(s.Cells) == 0 {
		return nil, nil
	}
	jobs := make([]engine.Job, len(s.Cells))
	for i, c := range s.Cells {
		if c.Size != 1 && c.Size != 10 && c.Size != 100 {
			return nil, fmt.Errorf("serve: cell %d: size %d, want 1, 10 or 100", i, c.Size)
		}
		if c.Repeats < 0 || c.Repeats > maxRepeats {
			return nil, fmt.Errorf("serve: cell %d: repeats %d, want 0 to %d", i, c.Repeats, maxRepeats)
		}
		job := c.Job()
		if _, err := results.Key(job); err != nil {
			return nil, fmt.Errorf("serve: cell %d: %w", i, err)
		}
		jobs[i] = job
	}
	return jobs, nil
}

// admit reads a POST /sweep body of at most maxLine bytes and resolves
// everything it names before anything runs: the figures to render and
// the explicit cells to run. A typo'd figure or collector is an error
// here, a 400, never a half-streamed sweep.
func admit(body io.Reader) (spec Spec, figs []experiments.SweepFig, jobs []engine.Job, err error) {
	if err = json.NewDecoder(io.LimitReader(body, maxLine)).Decode(&spec); err != nil {
		return spec, nil, nil, fmt.Errorf("bad sweep spec: %v", err)
	}
	if len(spec.Figs) > 0 || len(spec.Cells) == 0 {
		if figs, err = experiments.DemographicFigs(spec.Figs...); err != nil {
			return spec, nil, nil, err
		}
	}
	jobs, err = spec.Jobs()
	return spec, figs, jobs, err
}
