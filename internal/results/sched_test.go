package results

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// TestSchedulerInFlightDedup drives the dedup path deterministically:
// with no executors running, two sessions submit the same cell — the
// second must attach to the first's in-flight call (one queued call,
// dedup accounted), and finishing the call must deliver to both
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
	c := s.next()
	if c == nil || c.sess != a {
		t.Fatal("the queued call must belong to the leader session")
	}
	s.finish(c, Outcome{})
	if strings.Join(order, ",") != "a,b" {
		t.Fatalf("deliveries = %v, want both, in attach order", order)
	}
	if len(s.calls) != 0 || s.running != 0 {
		t.Fatalf("after finish: %d calls / %d running, want 0 / 0", len(s.calls), s.running)
	}
}

// TestFlightJoinResolve pins the in-flight call table's protocol: the
// first submit of a key leads and carries its job, later submits
// attach, a different key is its own call, and finishing a call takes
// it out of the table before delivering to every waiter exactly once,
// in attach order — so a waiter that submits the key again from its
// delivery starts a fresh call (completed-cell dedup is the store's
// job, not the table's).
func TestFlightJoinResolve(t *testing.T) {
	s := newScheduler(Local{Eng: engine.New(1)}, nil, nil)
	sess, _ := s.OpenSession("")
	var order []string
	deliver := func(tag string) func(Outcome) {
		return func(Outcome) { order = append(order, tag) }
	}
	s.submit(sess, "k", engine.Job{Workload: "w"}, deliver("first"))
	s.submit(sess, "k", engine.Job{}, func(Outcome) {
		order = append(order, "second")
		s.submit(sess, "k", engine.Job{}, deliver("late"))
	})
	s.submit(sess, "other", engine.Job{}, deliver("other"))
	if got := len(s.calls); got != 2 {
		t.Fatalf("calls = %d, want 2 (k and other)", got)
	}
	c := s.calls["k"]
	if c == nil || len(c.waiters) != 2 {
		t.Fatal("the second submit of k must attach to the first's call")
	}
	if c.job.Workload != "w" {
		t.Fatal("the call must carry the leader's job")
	}
	if got := s.next(); got != c {
		t.Fatal("k, queued first, must be taken first")
	}

	s.finish(c, Outcome{})
	if strings.Join(order, ",") != "first,second" {
		t.Fatalf("deliveries = %v, want [first second]", order)
	}
	fresh := s.calls["k"]
	if fresh == nil || fresh == c || len(fresh.waiters) != 1 {
		t.Fatal("a submit of k from a delivery must start a fresh call")
	}
	if got := len(s.calls); got != 2 {
		t.Fatalf("calls after finish = %d, want 2 (other and the fresh k)", got)
	}
	if got := sess.Stats().Deduped; got != 1 {
		t.Fatalf("deduped = %d, want 1 (only the attach while k was in flight)", got)
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
		c := s.popLocked()
		if c == nil {
			return ""
		}
		return c.key
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

// TestClientTagOutsideCellIdentity pins that the client a session is
// opened for is scheduling metadata, never cell identity: a cell
// computed for a named client stores under the same key, and with the
// same job, as one computed for an anonymous sweep, and the client name
// appears nowhere in the stored bytes.
func TestClientTagOutsideCellIdentity(t *testing.T) {
	job := engine.Job{Workload: workload.All()[0].Name, Size: 1, Collector: "cg"}
	key, err := Key(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, client := range []string{"", "alice"} {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(Local{Eng: engine.New(1)}, store, nil, 1)
		sess, err := s.OpenSession(client)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run([]engine.Job{job}, func(int, Outcome) {}); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		s.Wait()
		data, ok, err := store.GetKey(key)
		if err != nil || !ok {
			t.Fatalf("client %q: cell not stored under its key: ok=%v err=%v", client, ok, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Job != job {
			t.Errorf("client %q: stored job %+v, want %+v", client, got.Job, job)
		}
		if client != "" && bytes.Contains(data, []byte(client)) {
			t.Errorf("client name leaked into the stored outcome: %s", data)
		}
	}
}
