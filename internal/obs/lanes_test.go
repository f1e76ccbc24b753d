package obs

import (
	"fmt"
	"testing"
)

// TestProgressLanes pins the per-client fairness ledger: lanes count
// per client, anonymous (empty-name) updates have no lane, snapshots
// sort by client, and the table is bounded — clients past the cap
// aggregate into the "(other)" lane instead of growing without bound.
func TestProgressLanes(t *testing.T) {
	p := &Progress{}
	p.Submitted("bob", 4)
	p.Computed("bob")
	p.Stored("bob")
	p.Deduped("bob")
	p.Submitted("alice", 2)
	p.Computed("alice")
	p.Submitted("", 100) // anonymous: no lane

	s := p.Snapshot()
	if len(s.Lanes) != 2 {
		t.Fatalf("lanes = %+v, want alice and bob only", s.Lanes)
	}
	if s.Lanes[0].Client != "alice" || s.Lanes[1].Client != "bob" {
		t.Fatalf("lanes not sorted by client: %+v", s.Lanes)
	}
	if got := s.Lanes[1]; got.Submitted != 4 || got.Computed != 1 || got.Stored != 1 || got.Deduped != 1 {
		t.Fatalf("bob's lane = %+v", got)
	}

	// Overflow the table: everything past maxLanes lands in "(other)".
	for i := 0; i < maxLanes+10; i++ {
		p.Submitted(fmt.Sprintf("client-%03d", i), 1)
	}
	s = p.Snapshot()
	if len(s.Lanes) != maxLanes+1 {
		t.Fatalf("lane table grew to %d, want cap %d plus the catch-all", len(s.Lanes), maxLanes)
	}
	var other *LaneSnapshot
	for i := range s.Lanes {
		if s.Lanes[i].Client == OtherLane {
			other = &s.Lanes[i]
		}
	}
	if other == nil || other.Submitted == 0 {
		t.Fatalf("overflow clients did not aggregate into %q: %+v", OtherLane, s.Lanes)
	}
}
