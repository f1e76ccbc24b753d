package results

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// ErrDraining is returned by OpenSession once Drain has been called:
// the scheduler finishes what it accepted but admits nothing new.
var ErrDraining = errors.New("results: draining, not accepting new sweeps")

// Exec is the cell pipeline's compute step: run one cell and return its
// outcome, a job-level failure travelling in Outcome.Err. slot is the
// calling executor's index, in [0, executors), for per-lane accounting.
// Local runs the cell on an engine's shards; dist.Coordinator ships it
// to a worker process.
type Exec interface {
	Exec(slot int, job engine.Job) Outcome
}

// Scheduler is the cell pipeline every sweep runs on — batch cgsweep
// in-process or over worker processes, with or without a store, and
// every client of the sweep server:
//
//	key → store → in-flight → admit → exec → put → deliver in index order
//
// with three properties:
//
//   - exactly-once execution: a cell wanted by several sessions at once
//     is computed once (the calls table dedups in-flight work; the store
//     dedups completed work — the leader Puts before its call leaves the
//     table, so any later request for the key is a disk hit);
//   - fairness: each session owns a FIFO queue and executors take the
//     next cell round-robin across sessions, so a 10k-cell sweep and a
//     3-cell sweep make progress side by side;
//   - bounded admission: a fixed set of executors runs cells, so the
//     process holds that many cells' handle tables no matter how many
//     sessions are open.
type Scheduler struct {
	exec  Exec
	store *Store // nil: no store
	prog  *obs.Progress

	mu       sync.Mutex
	cond     *sync.Cond
	calls    map[string]*call // in-flight cells by key, queued or executing
	ring     []*Session       // sessions with non-empty pending queues, round-robin order
	rr       int              // next ring slot to serve
	queued   int              // calls pending across the ring
	running  int              // calls currently executing
	draining bool             // no new sessions
	closed   bool             // executors may exit once the ring drains

	sessions sync.WaitGroup // open sessions
	execs    sync.WaitGroup // executor goroutines
}

// call is one in-flight cell: queued on its leader session's FIFO, then
// executing. Fairness and accounting credit the leader; every session
// that asks for the key meanwhile attaches a waiter and rides along. A
// call leaves the table when it finishes, so a later request for the
// key starts a fresh call — which finds the cell in the store, if there
// is one.
type call struct {
	key     string
	job     engine.Job
	sess    *Session
	waiters []func(Outcome)
}

// NewScheduler returns a running scheduler that computes cells with
// exec on executors goroutines (at least one). store may be nil: every
// cell that is not in flight is then computed. prog may be nil.
func NewScheduler(exec Exec, store *Store, prog *obs.Progress, executors int) *Scheduler {
	s := newScheduler(exec, store, prog)
	for i := 0; i < max(executors, 1); i++ {
		s.execs.Add(1)
		go s.executor(i)
	}
	return s
}

// newScheduler builds the scheduler state without starting executors
// (the fairness unit tests drive popLocked directly).
func newScheduler(exec Exec, store *Store, prog *obs.Progress) *Scheduler {
	s := &Scheduler{exec: exec, store: store, prog: prog, calls: make(map[string]*call)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// RunOnce runs jobs as the one session of a fresh store-less scheduler
// with the given executor count, then stops it: Backend.Run for an Exec.
func RunOnce(exec Exec, prog *obs.Progress, executors int, jobs []engine.Job, emit func(int, Outcome)) error {
	s := NewScheduler(exec, nil, prog, executors)
	sess, _ := s.OpenSession("") // a fresh scheduler is not draining
	err := sess.Run(jobs, emit)
	sess.Close()
	s.Wait()
	return err
}

// OpenSession admits one client sweep. Every Run on the session shares
// the scheduler's store and dedup but emits in its own strict index
// order; Close releases the session (idempotent). Fails once draining —
// but a session opened before Drain keeps submitting until it completes,
// so accepted streams are never truncated.
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
// executors. A server calls it after Drain; the pair is the
// graceful-shutdown sequence (a session's Run returns only after all its
// cells were delivered, so closed sessions imply an empty ring).
func (s *Scheduler) Wait() {
	s.sessions.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.execs.Wait()
}

// SessionStats is the delivery accounting of one session: how many
// cells it submitted and how each was satisfied. Cells = Computed +
// Stored + Deduped once every Run has returned.
type SessionStats struct {
	Cells    int64 `json:"cells"`
	Computed int64 `json:"computed"`
	Stored   int64 `json:"stored"`
	Deduped  int64 `json:"deduped"`
}

// Session is one client sweep's handle on the scheduler: a fair queue
// identity, an accounting scope, and a Backend whose emissions are
// index-ordered per the backend contract.
type Session struct {
	s      *Scheduler
	client string
	closed bool // guarded by s.mu

	pending []*call // guarded by s.mu
	inRing  bool    // guarded by s.mu

	submitted, computed, stored, deduped atomic.Int64
}

// Stats snapshots the session's delivery accounting.
func (sess *Session) Stats() SessionStats {
	return SessionStats{
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

// Run implements Backend: emit(i, o) fires exactly once per job,
// sequentially, in strictly increasing i — regardless of which
// executor, store hit or other session's in-flight cell produced o. It
// blocks until the batch is fully delivered.
func (sess *Session) Run(jobs []engine.Job, emit func(i int, o Outcome)) error {
	s := sess.s
	sess.submitted.Add(int64(len(jobs)))
	s.prog.Submitted(sess.client, len(jobs))
	ord := NewReorder(len(jobs), emit)
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, job := range jobs {
		key, err := Key(job)
		if err != nil {
			// A malformed cell is a job-level failure: it must not wedge
			// the batch.
			ord.Add(i, Outcome{Job: job, Err: err.Error()})
			wg.Done()
			continue
		}
		s.submit(sess, key, job, func(o Outcome) {
			ord.Add(i, o)
			wg.Done()
		})
	}
	wg.Wait()
	return ord.Finish()
}

// submit routes one cell: attach to the key's in-flight call (dedup) or
// open the call as its leader and queue it on this session's fair queue.
func (s *Scheduler) submit(sess *Session, key string, job engine.Job, deliver func(Outcome)) {
	s.mu.Lock()
	if c, ok := s.calls[key]; ok {
		c.waiters = append(c.waiters, deliver)
		s.mu.Unlock()
		sess.deduped.Add(1)
		s.prog.Deduped(sess.client)
		return
	}
	c := &call{key: key, job: job, sess: sess, waiters: []func(Outcome){deliver}}
	s.calls[key] = c
	sess.pending = append(sess.pending, c)
	if !sess.inRing {
		sess.inRing = true
		s.ring = append(s.ring, sess)
	}
	s.queued++
	s.prog.SetGauges(s.queued, s.running)
	s.mu.Unlock()
	s.cond.Signal()
}

// popLocked takes the next call round-robin across session queues.
// Callers hold s.mu. The ring holds only sessions with pending calls;
// a session leaves the ring the moment its queue empties and rejoins
// on its next submit (at the tail — fresh work waits its turn).
func (s *Scheduler) popLocked() *call {
	if len(s.ring) == 0 {
		return nil
	}
	if s.rr >= len(s.ring) {
		s.rr = 0
	}
	sess := s.ring[s.rr]
	c := sess.pending[0]
	sess.pending = sess.pending[1:]
	if len(sess.pending) == 0 {
		sess.inRing = false
		s.ring = append(s.ring[:s.rr], s.ring[s.rr+1:]...)
		// rr now indexes the next session already; leave it.
	} else {
		s.rr++
	}
	s.queued--
	return c
}

// executor is one admission slot: it loops taking the fairest next
// cell and computing it. The store check happens here, on the
// executor, so cells completed by another session between submit and
// execution are disk hits, never recomputes — and a run whose every
// cell is on disk never calls exec at all.
func (s *Scheduler) executor(slot int) {
	defer s.execs.Done()
	for {
		c := s.next()
		if c == nil {
			return
		}
		s.compute(slot, c)
	}
}

// next blocks for the next call; nil means the scheduler has closed.
func (s *Scheduler) next() *call {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if c := s.popLocked(); c != nil {
			s.running++
			s.prog.SetGauges(s.queued, s.running)
			return c
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// compute satisfies one call: from the store when the cell is already
// on disk (marked Stored), else by exec, persisting the result before
// finishing — the Put-before-finish order is what guarantees a late
// requester's fresh call store-hits instead of recomputing.
func (s *Scheduler) compute(slot int, c *call) {
	sess := c.sess
	if s.store != nil {
		// An unreadable file (a torn write from a killed sweep) is a miss.
		if o, _, ok, err := s.store.load(c.key); err == nil && ok {
			o.Stored = true
			sess.stored.Add(1)
			s.prog.Stored(sess.client)
			s.finish(c, o)
			return
		}
	}
	out := s.exec.Exec(slot, c.job)
	sess.computed.Add(1)
	s.prog.Computed(sess.client)
	if s.store != nil {
		if err := s.store.Put(out); err != nil {
			// A failed Put degrades the cache, not the stream: the waiters
			// still get the outcome, the cell just recomputes next time.
			fmt.Fprintf(os.Stderr, "results: store put %s: %v\n", c.key, err)
		}
	}
	s.finish(c, out)
}

// finish takes the call out of the table and returns its execution slot
// under the lock, then delivers o to every waiter in attach order
// outside it — so a waiter may submit the same key again without
// deadlock, and starts a fresh call when it does.
func (s *Scheduler) finish(c *call, o Outcome) {
	s.mu.Lock()
	delete(s.calls, c.key)
	waiters := c.waiters
	c.waiters = nil
	s.running--
	s.prog.SetGauges(s.queued, s.running)
	s.mu.Unlock()
	for _, deliver := range waiters {
		deliver(o)
	}
}
