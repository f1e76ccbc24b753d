package dist

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
)

// maxAttempts bounds how many distinct workers may try one cell before
// the coordinator gives up and returns an error outcome. Job-level
// failures (a panicking workload) are *results* and are never retried —
// cells are deterministic; only transport failures (a worker process
// dying mid-cell) send a cell to another worker.
const maxAttempts = 3

// errClosed is the transport error Close charges to its own workers.
var errClosed = errors.New("dist: coordinator closed")

// Conn is one worker transport: the worker's stdin, its stdout, and a
// close hook that reaps whatever was spawned.
type Conn struct {
	W io.WriteCloser
	R io.Reader
	// Close releases the worker (kill + reap for processes). Must be
	// safe to call after W is closed.
	Close func() error
}

// Spawner starts worker id and returns its connection.
type Spawner func(id int) (*Conn, error)

// Coordinator is the multi-process transport under the cell pipeline's
// exec step (results.Exec): each Exec ships one cell to a live worker
// with a free slot in the window its hello advertised, and returns the
// outcome the worker sends back. The Procs workers spawn concurrently
// on the first Exec and never before, so a run whose every cell is a
// store hit forks nothing. A cell whose worker's transport dies is
// retried on another worker; once no worker is left, Exec fails fast.
// Close kills and reaps the workers.
type Coordinator struct {
	Spawn Spawner
	Procs int
	// Obs, when non-nil, shows each worker's in-flight count and
	// completions, labelled by its hello's provenance.
	Obs *obs.Progress

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a slot frees, a worker dies or spawning ends
	spawning bool
	spawned  bool
	workers  []*worker
	nextID   int   // request ids, unique across workers so a retry never aliases
	lastErr  error // the latest transport error
	unserved int   // cells failed because no worker was left
}

// worker is one live connection and its window.
type worker struct {
	id       int
	conn     *Conn
	capacity int
	dead     bool               // guarded by Coordinator.mu
	calls    map[int]chan reply // in flight by request id; guarded by Coordinator.mu
	done     chan struct{}      // closed when the reader exits

	wmu sync.Mutex // serialises request lines
	bw  *bufio.Writer
	enc *json.Encoder
}

// reply is what an Exec waiting on a request receives: the outcome, or
// the transport error that retired its worker.
type reply struct {
	o   results.Outcome
	err error
}

// Run implements results.Backend: a one-session run of the cell
// pipeline over this transport, with up to GOMAXPROCS executors per
// worker. It kills and reaps the workers before returning, and fails if
// cells went undelivered because every worker was lost.
func (c *Coordinator) Run(jobs []engine.Job, emit func(i int, o results.Outcome)) error {
	defer c.Close()
	if err := results.RunOnce(c, c.Obs, max(c.Procs, 1)*runtime.GOMAXPROCS(0), jobs, emit); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.unserved > 0 {
		return fmt.Errorf("dist: %d of %d cells never completed: no worker left: %v", c.unserved, len(jobs), c.lastErr)
	}
	return nil
}

// Exec implements results.Exec.
func (c *Coordinator) Exec(_ int, job engine.Job) results.Outcome {
	var cause error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		w, id, ch, err := c.acquire()
		if err != nil {
			return results.Outcome{Job: job, Err: err.Error()}
		}
		if err := w.send(request{Type: "job", ID: id, Job: job}); err != nil {
			c.fail(w, fmt.Errorf("dist: worker %d send: %w", w.id, err))
		}
		r := <-ch
		if r.err == nil {
			return r.o
		}
		cause = r.err
	}
	return results.Outcome{
		Job: job,
		Err: fmt.Sprintf("dist: cell failed on %d workers: last transport error: %v", maxAttempts, cause),
	}
}

// acquire charges a new request to a live worker with a free slot,
// spawning the workers on the first call and waiting while every live
// window is full. It fails once no worker is left.
func (c *Coordinator) acquire() (*worker, int, chan reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	if !c.spawned && !c.spawning {
		c.spawning = true
		c.mu.Unlock()
		ws, err := c.spawnAll()
		c.mu.Lock()
		c.spawning, c.spawned, c.workers = false, true, ws
		if err != nil {
			c.lastErr = err
		}
		c.cond.Broadcast()
	}
	for {
		if !c.spawning {
			live := false
			for _, w := range c.workers {
				if w.dead {
					continue
				}
				live = true
				if len(w.calls) < w.capacity {
					id := c.nextID
					c.nextID++
					ch := make(chan reply, 1)
					w.calls[id] = ch
					c.Obs.SetWorkerBusy(w.id, len(w.calls))
					return w, id, ch, nil
				}
			}
			if !live {
				c.unserved++
				return nil, 0, nil, fmt.Errorf("dist: no worker left: %v", c.lastErr)
			}
		}
		c.cond.Wait()
	}
}

// spawnAll starts the Procs workers concurrently and returns those that
// said hello, with the first failure of the rest.
func (c *Coordinator) spawnAll() ([]*worker, error) {
	procs := max(c.Procs, 1)
	c.Obs.EnsureWorkers(procs)
	ws := make([]*worker, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for id := range ws {
		go func() {
			defer wg.Done()
			ws[id], errs[id] = c.dial(id)
		}()
	}
	wg.Wait()
	return slices.DeleteFunc(ws, func(w *worker) bool { return w == nil }), cmp.Or(errs...)
}

// dial spawns worker id, reads its hello and starts its reader.
func (c *Coordinator) dial(id int) (*worker, error) {
	conn, err := c.Spawn(id)
	if err != nil {
		return nil, fmt.Errorf("dist: spawn worker %d: %w", id, err)
	}
	dec := json.NewDecoder(bufio.NewReader(conn.R))
	var hello response
	if err := dec.Decode(&hello); err != nil {
		shut(conn)
		return nil, fmt.Errorf("dist: worker %d hello: %w", id, err)
	}
	if hello.Type != "hello" || hello.Proto != protoVersion {
		shut(conn)
		return nil, fmt.Errorf("dist: worker %d spoke %q proto %d, want hello proto %d",
			id, hello.Type, hello.Proto, protoVersion)
	}
	if p := hello.Prov; p != nil {
		c.Obs.SetWorkerLabel(id, fmt.Sprintf("%s/%d", p.Host, p.PID))
	}
	bw := bufio.NewWriter(conn.W)
	w := &worker{
		id: id, conn: conn, capacity: max(hello.Capacity, 1),
		calls: make(map[int]chan reply), done: make(chan struct{}),
		bw: bw, enc: json.NewEncoder(bw),
	}
	go c.read(w, dec)
	return w, nil
}

// send writes one request line.
func (w *worker) send(req request) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := w.enc.Encode(req); err != nil {
		return err
	}
	return w.bw.Flush()
}

// read hands worker w's results to the Execs waiting on them until its
// stream ends; a read or protocol failure retires the worker.
func (c *Coordinator) read(w *worker, dec *json.Decoder) {
	defer close(w.done)
	for {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			c.fail(w, fmt.Errorf("dist: worker %d read: %w", w.id, err))
			return
		}
		c.mu.Lock()
		ch, ok := w.calls[resp.ID]
		ok = ok && resp.Type == "result" && resp.Outcome != nil
		if ok {
			delete(w.calls, resp.ID)
			c.Obs.SetWorkerBusy(w.id, len(w.calls))
			c.Obs.AddWorkerDone(w.id)
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		if !ok {
			c.fail(w, fmt.Errorf("dist: worker %d sent unexpected %q for cell %d", w.id, resp.Type, resp.ID))
			return
		}
		ch <- reply{o: *resp.Outcome}
	}
}

// fail retires worker w after a transport error: it is killed and
// reaped, and every cell in flight on it is handed err, which the
// waiting Exec retries on another worker. Later calls are no-ops.
func (c *Coordinator) fail(w *worker, err error) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	calls := w.calls
	w.calls = nil
	c.lastErr = err
	c.Obs.SetWorkerBusy(w.id, 0)
	c.cond.Broadcast()
	c.mu.Unlock()
	shut(w.conn)
	for _, ch := range calls {
		ch <- reply{err: err}
	}
}

// Close kills and reaps every worker and returns once their readers
// have exited; call it when no Exec is running. The next Exec spawns
// afresh.
func (c *Coordinator) Close() {
	c.mu.Lock()
	ws := c.workers
	c.workers, c.spawned = nil, false
	c.mu.Unlock()
	for _, w := range ws {
		c.fail(w, errClosed)
	}
	for _, w := range ws {
		<-w.done
	}
	c.mu.Lock()
	c.lastErr, c.unserved = nil, 0
	c.mu.Unlock()
}

// shut closes a worker's stdin and releases it. The coordinator has
// stopped using the worker, so nothing is left to report from either
// call.
func shut(conn *Conn) {
	conn.W.Close()
	if conn.Close != nil {
		conn.Close()
	}
}
