package heap

import (
	"fmt"
	"sync"
)

// Reserve is a process-wide byte budget that arenas are drawn against:
// every shard arena's full capacity is reserved before the shard runs
// and released when the shard is discarded, so a -max-heap-bytes cap is
// an *exact* admission check — the sum of reserved bytes never exceeds
// the cap, and an admitted job can never OOM the reserve, because the
// arena cannot grow past the capacity that was reserved for it.
//
// Admission blocks until enough reserved bytes are released. A request
// larger than the cap itself admits only when the reserve is otherwise
// empty (runs alone), so a single oversized cell degrades to sequential
// execution instead of deadlocking the sweep. An optional evict hook
// lets the owner surrender idle reservations (pooled shards) before a
// request waits; the owner calls Parked whenever a reservation becomes
// idle, so a request already waiting re-runs the hook.
type Reserve struct {
	max   int64
	evict func() bool // try to release an idle reservation; reports progress

	mu       sync.Mutex
	cond     *sync.Cond
	reserved int64
	parked   uint64 // generation: bumped by every Parked call
}

// NewReserve returns a reserve admitting up to max bytes.
func NewReserve(max int64) *Reserve {
	if max <= 0 {
		panic(fmt.Sprintf("heap: non-positive reserve %d", max))
	}
	r := &Reserve{max: max}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Max reports the reserve's byte cap.
func (r *Reserve) Max() int64 { return r.max }

// Reserved reports currently reserved bytes.
func (r *Reserve) Reserved() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reserved
}

// SetEvict installs the eviction hook, called (without the reserve's
// lock held) when an acquisition would otherwise wait. It must return
// true only if it released reserve bytes. Set before concurrent use.
func (r *Reserve) SetEvict(evict func() bool) { r.evict = evict }

// Acquire blocks until n bytes fit under the cap and reserves them. The
// oversized escape: when nothing is reserved, any n is admitted.
//
// The evict hook runs without the lock, so a reservation can go idle
// between the hook finding nothing and this goroutine going to sleep.
// The parked generation closes that window: it is read before the
// unlock and re-checked after the relock, and Parked bumps it under the
// lock before broadcasting, so the park either shows as a changed
// generation (retry the hook) or finds this goroutine already in Wait.
func (r *Reserve) Acquire(n int64) {
	r.mu.Lock()
	for r.reserved != 0 && r.reserved+n > r.max {
		if evict := r.evict; evict != nil {
			gen := r.parked
			r.mu.Unlock()
			progressed := evict()
			r.mu.Lock()
			if progressed || r.parked != gen {
				continue
			}
			if r.reserved == 0 || r.reserved+n <= r.max {
				break
			}
		}
		r.cond.Wait()
	}
	r.reserved += n
	r.mu.Unlock()
}

// Parked tells waiters that a held reservation just became idle — the
// evict hook can now surrender it. Call it after the reservation is
// visible to the hook (the shard is in the pool).
func (r *Reserve) Parked() {
	r.mu.Lock()
	r.parked++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// TryAcquire reserves n bytes if they fit (or the reserve is empty)
// without blocking or evicting; it reports whether it did.
func (r *Reserve) TryAcquire(n int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reserved != 0 && r.reserved+n > r.max {
		return false
	}
	r.reserved += n
	return true
}

// Release returns n reserved bytes and wakes waiters.
func (r *Reserve) Release(n int64) {
	r.mu.Lock()
	r.reserved -= n
	if r.reserved < 0 {
		panic("heap: reserve released more than acquired")
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}
