package results

import (
	"sync"

	"repro/internal/engine"
)

// Flight is the in-flight cell table: at most one computation per cell
// key, with every concurrent requester attached as a waiter. It is the
// second dedup tier of a shared-cache backend — the Store dedups
// against completed cells on disk, Flight dedups against cells that are
// *currently being computed* — and the primitive the Scheduler's dedup
// is built on: two sessions asking for overlapping grids join
// the same calls, so each overlapping cell executes exactly once while
// both streams receive it.
//
// The protocol: Join attaches a delivery callback to key's call,
// creating the call when absent; whoever created it (the leader) owns
// computing the cell and calling Resolve, which removes the call and
// delivers the outcome to every waiter. A Join that arrives after
// Resolve starts a fresh call — callers that want completed cells
// deduped too must consult the Store before computing (the leader-side
// store check closes the race: the previous leader Puts before it
// Resolves, so a late joiner's recompute finds the cell on disk).
type Flight struct {
	mu    sync.Mutex
	calls map[string]*FlightCall
}

// FlightCall is one in-flight cell computation: the cell's key, the job
// as first submitted (fairness accounting tags ride on it), and the
// attached delivery callbacks.
type FlightCall struct {
	Key string
	Job engine.Job

	f       *Flight
	waiters []func(Outcome)
}

// Join attaches deliver to key's in-flight call. The boolean reports
// leadership: true means this Join created the call and the caller must
// compute the cell and Resolve it; false means an existing computation
// will deliver. deliver runs on the resolver's goroutine, exactly once,
// in attach order.
func (f *Flight) Join(key string, job engine.Job, deliver func(Outcome)) (*FlightCall, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.calls == nil {
		f.calls = make(map[string]*FlightCall)
	}
	if c, ok := f.calls[key]; ok {
		c.waiters = append(c.waiters, deliver)
		return c, false
	}
	c := &FlightCall{Key: key, Job: job, f: f, waiters: []func(Outcome){deliver}}
	f.calls[key] = c
	return c, true
}

// Resolve removes the call from the table and delivers o to every
// waiter in attach order. Only the leader calls it, exactly once; the
// removal happens before any delivery, so a waiter's callback can
// re-submit the same key without self-deadlock.
func (c *FlightCall) Resolve(o Outcome) {
	c.f.mu.Lock()
	delete(c.f.calls, c.Key)
	waiters := c.waiters
	c.waiters = nil
	c.f.mu.Unlock()
	for _, deliver := range waiters {
		deliver(o)
	}
}

// Waiters reports how many deliveries the call currently feeds
// (diagnostics; racy by nature, exact only from the leader before
// Resolve).
func (c *FlightCall) Waiters() int {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return len(c.waiters)
}

// InFlight reports how many calls are currently open (diagnostics).
func (f *Flight) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
