package heap

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// idlePool stands in for the engine's shard pool: reservations that are
// held but idle, which the reserve's evict hook may surrender.
type idlePool struct {
	mu   sync.Mutex
	idle []int64
	max  int
}

func (p *idlePool) get(n int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, have := range p.idle {
		if have == n {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return true
		}
	}
	return false
}

func (p *idlePool) put(n int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= p.max {
		return false
	}
	p.idle = append(p.idle, n)
	return true
}

func (p *idlePool) evictOne() (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) == 0 {
		return 0, false
	}
	n := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return n, true
}

func (p *idlePool) bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for _, n := range p.idle {
		sum += n
	}
	return sum
}

// deadline panics with every goroutine's stack if the returned stop
// function is not called within a minute: a lost wakeup shows as a
// hang, and this reports it instead of waiting out the package timeout.
func deadline(what string) (stop func() bool) {
	return time.AfterFunc(time.Minute, func() {
		debug.SetTraceback("all")
		panic(what + " still blocked after a minute")
	}).Stop
}

// TestReserveParkWakesWaiter pins the two orders in which a park can
// meet a waiter. The evict hook runs without the reserve's lock, so a
// reservation may go idle after the hook found nothing but before the
// waiter sleeps ("during probe": a bare Broadcast would be lost), or
// once the waiter is already past its probe ("after probe"). Either
// way the waiter must evict the parked reservation and be admitted.
func TestReserveParkWakesWaiter(t *testing.T) {
	for _, when := range []string{"during probe", "after probe"} {
		t.Run(when, func(t *testing.T) {
			defer deadline("Acquire after a park (" + when + ")")()
			r := NewReserve(10)
			pool := &idlePool{max: 1}
			park := func() {
				pool.put(8)
				r.Parked()
			}
			probed := make(chan struct{})
			var once sync.Once
			r.SetEvict(func() bool {
				if n, ok := pool.evictOne(); ok {
					r.Release(n)
					return true
				}
				once.Do(func() {
					if when == "during probe" {
						park()
					}
					close(probed)
				})
				return false
			})
			r.Acquire(8) // the running shard
			admitted := make(chan struct{})
			go func() {
				r.Acquire(8) // does not fit beside it: probes, then waits
				close(admitted)
			}()
			<-probed
			if when == "after probe" {
				park()
			}
			<-admitted
			if got := r.Reserved(); got != 8 {
				t.Errorf("reserved %d bytes after the eviction, want 8", got)
			}
		})
	}
}

// TestReserveParkEvictStress is the liveness property behind
// -max-heap-bytes: goroutines acquire, then either release or park their
// reservation in an idle pool the evict hook drains, in a seeded random
// mix, at GOMAXPROCS 1, 2 and 4. Every request fits under the cap on
// its own, so the run must finish: a waiter that misses a park (the
// hook probes the pool without the reserve's lock) would sleep forever
// once every other goroutine has parked and left. The cap is never
// exceeded, and what stays reserved at the end is exactly what is
// parked.
func TestReserveParkEvictStress(t *testing.T) {
	const (
		limit      = 20
		goroutines = 8
		rounds     = 400
	)
	sizes := []int64{2, 4, 6, 8}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r := NewReserve(limit)
			pool := &idlePool{max: goroutines}
			r.SetEvict(func() bool {
				n, ok := pool.evictOne()
				if ok {
					r.Release(n)
				}
				return ok
			})
			defer deadline(fmt.Sprintf("reserve stress at GOMAXPROCS=%d", procs))()

			var wg sync.WaitGroup
			over := make([]int64, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(procs*100 + g)))
					for i := 0; i < rounds; i++ {
						n := sizes[rng.Intn(len(sizes))]
						if !pool.get(n) {
							r.Acquire(n)
						}
						if got := r.Reserved(); got > limit {
							over[g] = got
						}
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
						if rng.Intn(3) > 0 && pool.put(n) {
							r.Parked()
						} else {
							r.Release(n)
						}
					}
				}()
			}
			wg.Wait()
			for g, got := range over {
				if got != 0 {
					t.Errorf("goroutine %d saw %d bytes reserved under a cap of %d", g, got, limit)
				}
			}
			if got, want := r.Reserved(), pool.bytes(); got != want {
				t.Errorf("quiescent reserve holds %d bytes, idle pool %d", got, want)
			}
		})
	}
}
