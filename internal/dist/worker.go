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
// in-flight jobs and returns. The worker is one session of a store-less
// results.Scheduler over results.Local: each job is a one-cell Run on
// it, answered the moment its cell completes, on eng's pooled shards
// with one executor per engine worker. Serve is what cmd/cgworker
// wraps; tests drive it directly over in-memory pipes.
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

	sched := results.NewScheduler(results.Local{Eng: eng, Obs: prog}, nil, prog, capacity)
	sess, _ := sched.OpenSession("") // a fresh scheduler is not draining
	// The coordinator's window keeps at most capacity jobs unanswered; the
	// semaphore holds the decode loop to the same bound, so a coordinator
	// that overruns it blocks on its pipe instead of growing our
	// goroutine count.
	sem := make(chan struct{}, capacity)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var sendErr error
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
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			// A one-job Run returns once its job was delivered, so its
			// "never completed" error cannot occur.
			_ = sess.Run([]engine.Job{req.Job}, func(_ int, o results.Outcome) {
				if err := send(response{Type: "result", ID: req.ID, Outcome: &o}); err != nil {
					errOnce.Do(func() { sendErr = err })
				}
			})
		}()
	}
	wg.Wait()
	sess.Close()
	sched.Wait()
	if readErr != nil {
		return readErr
	}
	if sendErr != nil {
		return fmt.Errorf("dist: worker send: %w", sendErr)
	}
	return nil
}
