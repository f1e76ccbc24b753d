package heap

import (
	"testing"
	"time"
)

// TestReserveAcquireBlocksUntilRelease: a request that does not fit
// beside what is reserved waits for a Release, and one larger than the
// whole reserve is admitted when nothing else is.
func TestReserveAcquireBlocksUntilRelease(t *testing.T) {
	r := NewReserve(10)
	r.Acquire(8)
	admitted := make(chan struct{})
	go func() { r.Acquire(8); close(admitted) }()
	select {
	case <-admitted:
		t.Fatal("8 bytes were admitted beside 8 under a cap of 10")
	case <-time.After(20 * time.Millisecond):
	}
	r.Release(8)
	<-admitted
	r.Release(8)
	r.Acquire(64)
}
