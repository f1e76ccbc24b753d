package results

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// TestFlightJoinResolve pins the in-flight table's protocol: the first
// Join leads, later Joins attach, Resolve removes the call and delivers
// to every waiter exactly once in attach order, and a Join after
// Resolve starts a fresh call (completed-cell dedup is the store's
// job, not Flight's).
func TestFlightJoinResolve(t *testing.T) {
	var f Flight
	var order []string
	deliver := func(tag string) func(Outcome) {
		return func(Outcome) { order = append(order, tag) }
	}

	c, leader := f.Join("k", engine.Job{Workload: "w"}, deliver("first"))
	if !leader {
		t.Fatal("first Join must lead")
	}
	if c2, leader := f.Join("k", engine.Job{}, deliver("second")); leader || c2 != c {
		t.Fatal("second Join must attach to the same call, not lead")
	}
	if _, leader := f.Join("other", engine.Job{}, deliver("other")); !leader {
		t.Fatal("a different key is its own call")
	}
	if got := f.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	if got := c.Waiters(); got != 2 {
		t.Fatalf("Waiters = %d, want 2", got)
	}
	if c.Job.Workload != "w" {
		t.Fatal("call must carry the leader's job")
	}

	c.Resolve(Outcome{})
	if got := len(order); got != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("deliveries = %v, want [first second]", order)
	}
	if got := f.InFlight(); got != 1 {
		t.Fatalf("InFlight after resolve = %d, want 1 (the other call)", got)
	}
	if _, leader := f.Join("k", engine.Job{}, deliver("late")); !leader {
		t.Fatal("a Join after Resolve must start a fresh call")
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

// TestStoreGetKey pins the key-addressed read path the cell endpoint
// serves from: the raw stored bytes come back for the exact key, and
// an uncomputed key is a miss, not an error.
func TestStoreGetKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Workload: workload.All()[0].Name, Size: 1, Collector: "cg"}
	o := Outcome{Job: job, Payload: Payload{Kind: "none"}}
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	key, err := Key(job)
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.GetKey(key)
	if err != nil || !ok {
		t.Fatalf("GetKey = %v, %v", ok, err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != job {
		t.Fatalf("GetKey round-trip job = %+v, want %+v", got.Job, job)
	}
	if _, ok, err := s.GetKey(key + "-missing"); err != nil || ok {
		t.Fatalf("uncomputed key: ok=%v err=%v, want miss", ok, err)
	}
}
