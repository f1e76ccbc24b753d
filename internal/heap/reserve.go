package heap

import (
	"fmt"
	"sync"
)

// Reserve is a counting byte budget: Acquire blocks until n more bytes
// fit under max, Release gives them back. A request larger than max is
// admitted when nothing else is reserved, so it runs alone instead of
// waiting forever.
//
// Nothing in the product calls it. It was the admission check behind a
// byte cap on resident arenas, which charged arena *capacity* — virtual,
// see arena.go — as if it were memory (DESIGN.md §13); this pair
// survives only because the end-to-end benchmark times it
// (heap.reserve_pair_ns) and that module is frozen outside benchmark PRs
// (ROADMAP, "For the next benchmark PR").
type Reserve struct {
	max int64

	mu       sync.Mutex
	cond     *sync.Cond
	reserved int64
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

// Acquire blocks until n bytes fit under the cap and reserves them.
func (r *Reserve) Acquire(n int64) {
	r.mu.Lock()
	for r.reserved != 0 && r.reserved+n > r.max {
		r.cond.Wait()
	}
	r.reserved += n
	r.mu.Unlock()
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
