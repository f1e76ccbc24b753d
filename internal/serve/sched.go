package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
)

// ErrDraining is returned by OpenSession once Drain has been called:
// the server finishes what it accepted but admits nothing new.
var ErrDraining = errors.New("serve: draining, not accepting new sweeps")

// Scheduler runs cells for many concurrent client sessions over one
// shared engine and one shared store, with three properties the batch
// backends don't need:
//
//   - exactly-once execution: a cell wanted by several sessions at once
//     is computed once (results.Flight dedups in-flight work; the store
//     dedups completed work — the leader Puts before it Resolves, so
//     any later request for the key is a disk hit);
//   - fairness: each session owns a FIFO queue and executors take the
//     next cell round-robin across sessions, so a 10k-cell sweep and a
//     3-cell sweep make progress side by side;
//   - bounded admission: at most maxInFlight executors run cells, so
//     the process holds that many cells' handle tables no matter how
//     many clients are connected.
type Scheduler struct {
	eng    *engine.Engine
	store  *results.Store
	prog   *obs.Progress
	flight results.Flight

	mu       sync.Mutex
	cond     *sync.Cond
	ring     []*Session // sessions with non-empty pending queues, round-robin order
	rr       int        // next ring slot to serve
	queued   int        // total pending tasks across the ring
	running  int        // tasks currently executing
	draining bool       // no new sessions
	closed   bool       // executors may exit once the ring drains

	sessions sync.WaitGroup // open sessions
	execs    sync.WaitGroup // executor goroutines
}

// task is one queued leader computation: the in-flight call and the
// session whose queue carried it (fairness and accounting credit the
// leader; other sessions attached to the call ride along for free).
type task struct {
	fc   *results.FlightCall
	sess *Session
}

// NewScheduler returns a running scheduler over eng and store with
// maxInFlight executors (<= 0 selects the engine's worker count).
// store is mandatory: it is the shared cache that makes the server a
// cache rather than a proxy. prog may be nil.
func NewScheduler(eng *engine.Engine, store *results.Store, prog *obs.Progress, maxInFlight int) *Scheduler {
	s := newScheduler(eng, store, prog)
	if maxInFlight <= 0 {
		maxInFlight = eng.Workers()
	}
	for i := 0; i < maxInFlight; i++ {
		s.execs.Add(1)
		go s.executor()
	}
	return s
}

// newScheduler builds the scheduler state without starting executors
// (the fairness unit tests drive popLocked directly).
func newScheduler(eng *engine.Engine, store *results.Store, prog *obs.Progress) *Scheduler {
	s := &Scheduler{eng: eng, store: store, prog: prog}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// OpenSession admits one client sweep. Every Run on the session shares
// the server's cache and dedup but emits in its own strict index order;
// Close releases the session (idempotent). Fails once draining — but a
// session opened before Drain keeps submitting until it completes, so
// accepted streams are never truncated.
func (s *Scheduler) OpenSession(client string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.sessions.Add(1)
	return &Session{s: s, client: client}, nil
}

// Drain stops admitting sessions. In-flight sessions run to completion.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// InFlight reports queued plus executing cells (the drain gauge).
func (s *Scheduler) InFlight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.queued + s.running)
}

// Wait blocks until every open session has closed, then stops the
// executors. Call after Drain; the pair is the graceful-shutdown
// sequence (a session's Run returns only after all its cells were
// delivered, so closed sessions imply an empty ring).
func (s *Scheduler) Wait() {
	s.sessions.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.execs.Wait()
}

// Session is one client sweep's handle on the scheduler: a fair queue
// identity, an accounting scope, and a results.Backend whose emissions
// are index-ordered per the backend contract.
type Session struct {
	s      *Scheduler
	client string
	closed bool // guarded by s.mu

	pending []*task
	inRing  bool // guarded by s.mu

	// Delivery accounting for the stream's terminal done event:
	// submitted = computed + stored + deduped once every batch returns.
	submitted, computed, stored, deduped atomic.Int64
}

// Client reports the session's client name ("" = anonymous).
func (sess *Session) Client() string { return sess.client }

// Stats snapshots the session's delivery accounting.
func (sess *Session) Stats() DoneStats {
	return DoneStats{
		Cells:    sess.submitted.Load(),
		Computed: sess.computed.Load(),
		Stored:   sess.stored.Load(),
		Deduped:  sess.deduped.Load(),
	}
}

// Close releases the session. Idempotent; safe after Run returned.
func (sess *Session) Close() {
	sess.s.mu.Lock()
	wasClosed := sess.closed
	sess.closed = true
	sess.s.mu.Unlock()
	if !wasClosed {
		sess.s.sessions.Done()
	}
}

// Run implements results.Backend: emit(i, o) fires exactly once per
// job, sequentially, in strictly increasing i — regardless of which
// executor, store hit or other client's in-flight cell produced o. It
// blocks until the batch is fully delivered.
func (sess *Session) Run(jobs []engine.Job, emit func(i int, o results.Outcome)) error {
	s := sess.s
	sess.submitted.Add(int64(len(jobs)))
	s.prog.LaneSubmitted(sess.client, len(jobs))
	ord := results.NewReorder(len(jobs), emit)
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, job := range jobs {
		job.Client = sess.client
		key, err := results.Key(job)
		if err != nil {
			// A malformed cell is a job-level failure, like the batch
			// backends' error outcomes — it must not wedge the batch.
			ord.Add(i, results.Outcome{Job: job, Err: err.Error()})
			wg.Done()
			continue
		}
		s.submit(sess, key, job, func(o results.Outcome) {
			ord.Add(i, o)
			wg.Done()
		})
	}
	wg.Wait()
	return ord.Finish()
}

// submit routes one cell: attach to an existing in-flight call (dedup)
// or become its leader and queue it on this session's fair queue.
func (s *Scheduler) submit(sess *Session, key string, job engine.Job, deliver func(results.Outcome)) {
	fc, leader := s.flight.Join(key, job, deliver)
	if !leader {
		sess.deduped.Add(1)
		s.prog.AddDeduped(1)
		s.prog.LaneDeduped(sess.client)
		return
	}
	s.mu.Lock()
	sess.pending = append(sess.pending, &task{fc: fc, sess: sess})
	if !sess.inRing {
		sess.inRing = true
		s.ring = append(s.ring, sess)
	}
	s.queued++
	s.syncGauges()
	s.mu.Unlock()
	s.cond.Signal()
}

// popLocked takes the next task round-robin across session queues.
// Callers hold s.mu. The ring holds only sessions with pending tasks;
// a session leaves the ring the moment its queue empties and rejoins
// on its next submit (at the tail — fresh work waits its turn).
func (s *Scheduler) popLocked() *task {
	if len(s.ring) == 0 {
		return nil
	}
	if s.rr >= len(s.ring) {
		s.rr = 0
	}
	sess := s.ring[s.rr]
	t := sess.pending[0]
	sess.pending = sess.pending[1:]
	if len(sess.pending) == 0 {
		sess.inRing = false
		s.ring = append(s.ring[:s.rr], s.ring[s.rr+1:]...)
		// rr now indexes the next session already; leave it.
	} else {
		s.rr++
	}
	s.queued--
	return t
}

// syncGauges mirrors queue depth and in-flight count into the progress
// surface. Callers hold s.mu.
func (s *Scheduler) syncGauges() {
	s.prog.SetQueued(s.queued)
	s.prog.SetInFlight(s.running)
}

// executor is one admission slot: it loops taking the fairest next
// cell and computing it. The store check happens here, on the
// executor, so cells completed by another client between submit and
// execution are disk hits, never recomputes.
func (s *Scheduler) executor() {
	defer s.execs.Done()
	for {
		t := s.next()
		if t == nil {
			return
		}
		s.compute(t)
	}
}

// next blocks for the next task; nil means the scheduler has closed.
func (s *Scheduler) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := s.popLocked(); t != nil {
			s.running++
			s.syncGauges()
			return t
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// compute satisfies one leader task: from the shared store when the
// cell is already on disk, else by executing it on the shared engine
// and persisting the result before resolving — the Put-before-Resolve
// order is what guarantees a late joiner's fresh call store-hits
// instead of recomputing.
func (s *Scheduler) compute(t *task) {
	fc, sess := t.fc, t.sess
	if o, ok, err := s.store.Get(fc.Job); err == nil && ok {
		sess.stored.Add(1)
		s.prog.AddStored(1)
		s.prog.LaneStored(sess.client)
		s.finish(fc, o)
		return
	}
	var out results.Outcome
	s.eng.ExecRelease(fc.Job, func(r engine.Result) { out = results.Extract(r) })
	sess.computed.Add(1)
	s.prog.AddComputed(1)
	if err := s.store.Put(out); err != nil {
		// A failed Put degrades the cache, not the stream: the waiters
		// still get the outcome, the cell just recomputes next time.
		fmt.Fprintf(os.Stderr, "serve: store put %s: %v\n", fc.Key, err)
	}
	s.finish(fc, out)
}

// finish resolves the call (delivering to every waiter) and returns
// the execution slot.
func (s *Scheduler) finish(fc *results.FlightCall, o results.Outcome) {
	fc.Resolve(o)
	s.mu.Lock()
	s.running--
	s.syncGauges()
	s.mu.Unlock()
}
