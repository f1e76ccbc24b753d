package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
)

// Serve runs the worker side of the protocol until r reaches EOF (the
// coordinator closing our stdin is the shutdown signal), then drains
// in-flight jobs and returns. Jobs execute on eng's pool via
// ExecRelease; outcomes are extracted on the worker goroutine so a
// finished shard is recycled before the next job starts. Serve is what
// cmd/cgworker wraps; tests drive it directly over in-memory pipes.
//
// prog, when non-nil, mirrors the worker's live state (per-lane
// utilization, queue depth, cells computed) for a -debug-addr surface;
// updates happen only at job boundaries.
func Serve(r io.Reader, w io.Writer, eng *engine.Engine, prog *obs.Progress) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var wmu sync.Mutex
	send := func(resp response) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(resp); err != nil {
			return err
		}
		return bw.Flush()
	}
	capacity := eng.Workers()
	prov := obs.Capture(obs.Nanotime())
	if err := send(response{Type: "hello", Proto: protoVersion, Capacity: capacity, Prov: &prov}); err != nil {
		return fmt.Errorf("dist: worker hello: %w", err)
	}

	// The window guarantees at most `capacity` unanswered jobs, so a
	// buffered channel of that depth means the decode loop never blocks
	// handing work to the pool.
	jobs := make(chan request, capacity)
	prog.EnsureWorkers(capacity)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var sendErr error
	for i := 0; i < capacity; i++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for req := range jobs {
				prog.SetQueued(len(jobs))
				prog.SetWorkerBusy(lane, 1)
				// ExecRelease recycles the shard as soon as the outcome
				// is extracted, so back-to-back cells of one sweep reuse
				// one runtime instead of rebuilding 512 MiB arenas.
				var o results.Outcome
				eng.ExecRelease(req.Job, func(r engine.Result) { o = results.Extract(r) })
				prog.SetWorkerBusy(lane, 0)
				prog.AddWorkerDone(lane)
				prog.AddComputed(1)
				if err := send(response{Type: "result", ID: req.ID, Outcome: &o}); err != nil {
					errOnce.Do(func() { sendErr = err })
				}
			}
		}(i)
	}

	dec := json.NewDecoder(bufio.NewReader(r))
	var readErr error
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if err != io.EOF {
				readErr = fmt.Errorf("dist: worker decode: %w", err)
			}
			break
		}
		if req.Type != "job" {
			readErr = fmt.Errorf("dist: worker got unknown request %q", req.Type)
			break
		}
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	if sendErr != nil {
		return fmt.Errorf("dist: worker send: %w", sendErr)
	}
	return nil
}
