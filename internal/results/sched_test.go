package results

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestSchedulerInFlightDedup drives the dedup path deterministically:
// with no executors running, two sessions submit the same cell — the
// second must attach to the first's in-flight call (one queued task,
// dedup accounted), and resolving the task must deliver to both
// exactly once, in attach order.
func TestSchedulerInFlightDedup(t *testing.T) {
	s := newScheduler(Local{Eng: engine.New(1)}, nil, nil)
	a, _ := s.OpenSession("a")
	b, _ := s.OpenSession("b")
	var order []string
	s.submit(a, "cell-k", engine.Job{}, func(Outcome) { order = append(order, "a") })
	s.submit(b, "cell-k", engine.Job{}, func(Outcome) { order = append(order, "b") })
	if s.queued != 1 {
		t.Fatalf("queued = %d, want 1 (second submit attached, not queued)", s.queued)
	}
	if got := b.Stats().Deduped; got != 1 {
		t.Fatalf("b deduped = %d, want 1", got)
	}
	s.mu.Lock()
	task := s.popLocked()
	s.mu.Unlock()
	if task == nil || task.sess != a {
		t.Fatal("queued task must belong to the leader session")
	}
	task.fc.Resolve(Outcome{})
	if strings.Join(order, ",") != "a,b" {
		t.Fatalf("deliveries = %v, want both, in attach order", order)
	}
	if s.flight.InFlight() != 0 {
		t.Fatal("resolved call still in the flight table")
	}
}

// TestSchedulerRoundRobin pins the fairness discipline white-box: with
// session a holding three queued cells and session b one, executors
// alternate a, b, a, a — b's small sweep is served on the second pop,
// not after a's queue drains. A session that empties leaves the ring
// and rejoins at the tail on its next submit.
func TestSchedulerRoundRobin(t *testing.T) {
	s := newScheduler(Local{Eng: engine.New(1)}, nil, nil)
	a, _ := s.OpenSession("a")
	b, _ := s.OpenSession("b")
	submit := func(sess *Session, key string) {
		s.submit(sess, key, engine.Job{}, func(Outcome) {})
	}
	pop := func() string {
		s.mu.Lock()
		defer s.mu.Unlock()
		task := s.popLocked()
		if task == nil {
			return ""
		}
		return task.fc.Key
	}

	submit(a, "a1")
	submit(a, "a2")
	submit(a, "a3")
	submit(b, "b1")
	for i, want := range []string{"a1", "b1", "a2", "a3", ""} {
		if got := pop(); got != want {
			t.Fatalf("pop %d = %q, want %q", i, got, want)
		}
	}

	// Rejoin at the tail: b empties, submits again, and waits its turn
	// behind a's existing queue position.
	submit(a, "a4")
	submit(b, "b2")
	if got := pop(); got != "a4" {
		t.Fatalf("after rejoin, first pop = %q, want a4", got)
	}
	if got := pop(); got != "b2" {
		t.Fatalf("after rejoin, second pop = %q, want b2", got)
	}
}
