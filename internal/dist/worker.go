package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/results"
)

// Serve runs the worker side of the protocol until r reaches EOF (the
// coordinator closing our stdin is the shutdown signal), then drains
// in-flight jobs and returns. Each job it reads runs on a shard of its
// own through eng.ExecRelease and is answered, by id, the moment its
// cell completes. The worker keys, queues and dedups nothing: the
// coordinator's scheduler has already done all three. Serve is what
// cmd/cgworker wraps; tests drive it directly over in-memory pipes.
func Serve(r io.Reader, w io.Writer, eng *engine.Engine) error {
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
	if err := send(response{Type: "hello", Proto: protoVersion, Capacity: capacity}); err != nil {
		return fmt.Errorf("dist: worker hello: %w", err)
	}

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
			var o results.Outcome
			eng.ExecRelease(req.Job, func(r engine.Result) { o = results.Extract(r) })
			if err := send(response{Type: "result", ID: req.ID, Outcome: &o}); err != nil {
				errOnce.Do(func() { sendErr = err })
			}
		}()
	}
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	if sendErr != nil {
		return fmt.Errorf("dist: worker send: %w", sendErr)
	}
	return nil
}
