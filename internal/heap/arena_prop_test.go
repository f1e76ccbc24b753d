package heap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Property tests: the slab arena against the first-fit SpanArena as a
// reference model (satellite of the slab-arena PR).
//
// The two allocators do not agree on arbitrary workloads — that is the
// point of the redesign: first-fit can satisfy a request by crossing
// size-class boundaries where a slab arena has pinned pages to other
// classes (a two-page arena holding one 8-byte and one 16-byte object
// refuses a page-sized request that first-fit serves from the remaining
// contiguous bytes). Agreement is therefore asserted in the regime
// where both allocators provably reduce to pure byte accounting:
//
//	single allocation size s, s divides the page size, capacity is a
//	multiple of the page size.
//
// There the span arena's free spans are always s-aligned s-multiples
// (induction over alloc/free), so first-fit succeeds iff live+s <=
// capacity; and every free slab block is reachable through a partial
// list, the per-class cache or the page heap, so the slab arena
// succeeds under exactly the same condition. Any divergence — success,
// failure, or InUse accounting — is a bug in one of them.
//
// Info() invariants are checked on *arbitrary* mixed sequences, and the
// checkers themselves are mutation-verified: deliberately broken
// allocators and a deliberately broken Info must make them fail.

// arenaModel is the operation surface the agreement checker drives.
// Both *Arena and *SpanArena satisfy it; mutants wrap one of them.
type arenaModel interface {
	Alloc(size int) (int, error)
	Free(addr, size int)
	Reset()
	InUse() int
	Size() int
}

// checkAgreement replays one randomized alloc/free/reset script against
// both allocators and returns an error on the first divergence.
func checkAgreement(subject, model arenaModel, s int, seed int64, steps int) error {
	if subject.Size() != model.Size() {
		return fmt.Errorf("capacity mismatch: %d vs %d", subject.Size(), model.Size())
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ sub, mod int }
	var live []pair
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op == 0:
			subject.Reset()
			model.Reset()
			live = live[:0]
		case op < 12 || len(live) == 0:
			pSub, errSub := subject.Alloc(s)
			pMod, errMod := model.Alloc(s)
			if (errSub == nil) != (errMod == nil) {
				return fmt.Errorf("step %d: alloc(%d) success disagrees: subject err=%v, model err=%v (live=%d of %d)",
					step, s, errSub, errMod, subject.InUse(), subject.Size())
			}
			if errSub == nil {
				live = append(live, pair{pSub, pMod})
			}
		default:
			i := rng.Intn(len(live))
			subject.Free(live[i].sub, s)
			model.Free(live[i].mod, s)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if subject.InUse() != model.InUse() {
			return fmt.Errorf("step %d: InUse disagrees: subject %d, model %d", step, subject.InUse(), model.InUse())
		}
	}
	return nil
}

func TestArenaAgreesWithSpanModel(t *testing.T) {
	for _, capacity := range []int{1 << 14, 1 << 16, 1 << 20} {
		pageSize := NewArena(capacity).PageSize()
		if capacity%pageSize != 0 {
			t.Fatalf("test capacity %d not page-aligned (page %d)", capacity, pageSize)
		}
		for s := 8; s <= pageSize; s *= 2 {
			seed := int64(capacity ^ s)
			if err := checkAgreement(NewArena(capacity), NewSpanArena(capacity), s, seed, 4000); err != nil {
				t.Errorf("capacity %d class %d: %v", capacity, s, err)
			}
		}
	}
}

// checkInfo replays a randomized mixed-size script on a slab arena and
// returns an error if any Info() invariant breaks:
//
//   - AllocBytes + free-list bytes <= HeapBytes <= Capacity, and
//     AllocBytes == InUse
//   - Overhead >= 0
//   - Overhead never decreases across a successful Alloc unless that
//     allocation reclaimed cached slabs (reclaim returns page slack to
//     the un-carved pool, which legitimately lowers Overhead)
//
// info is injected so the mutation tests can feed it a corrupted view.
func checkInfo(a *Arena, info func() Info, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	type ext struct{ addr, size int }
	var live []ext
	check := func(step int) error {
		in := info()
		if in.Capacity != a.Size() {
			return fmt.Errorf("step %d: Capacity %d, want %d", step, in.Capacity, a.Size())
		}
		if in.AllocBytes != a.InUse() {
			return fmt.Errorf("step %d: AllocBytes %d, InUse %d", step, in.AllocBytes, a.InUse())
		}
		if in.Overhead < 0 {
			return fmt.Errorf("step %d: negative overhead %d", step, in.Overhead)
		}
		if free := in.HeapBytes - in.AllocBytes - in.Overhead; free < 0 {
			return fmt.Errorf("step %d: alloc %d + overhead %d exceed heap %d", step, in.AllocBytes, in.Overhead, in.HeapBytes)
		}
		if in.HeapBytes > in.Capacity {
			return fmt.Errorf("step %d: heap %d exceeds capacity %d", step, in.HeapBytes, in.Capacity)
		}
		return nil
	}
	if err := check(-1); err != nil {
		return err
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op == 0:
			a.Reset()
			live = live[:0]
		case op < 12 || len(live) == 0:
			var size int
			if rng.Intn(8) == 0 {
				size = 1 + rng.Intn(5*a.PageSize())
			} else {
				size = 1 + rng.Intn(300)
			}
			before := info().Overhead
			beforeReclaims := a.reclaims
			addr, err := a.Alloc(size)
			if err == nil {
				live = append(live, ext{addr, size})
				if after := info().Overhead; after < before && a.reclaims == beforeReclaims {
					return fmt.Errorf("step %d: overhead fell %d -> %d on alloc(%d) without a reclaim",
						step, before, after, size)
				}
			}
		default:
			i := rng.Intn(len(live))
			a.Free(live[i].addr, live[i].size)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := check(step); err != nil {
			return err
		}
	}
	return nil
}

func TestArenaInfoInvariants(t *testing.T) {
	for _, capacity := range []int{64, 24 << 10, 1 << 16, 1 << 20} {
		a := NewArena(capacity)
		if err := checkInfo(a, a.Info, int64(capacity), 6000); err != nil {
			t.Errorf("capacity %d: %v", capacity, err)
		}
	}
}

// --- mutation verification of the checkers ---

// mutantFailing wraps an allocator and spuriously refuses every nth
// allocation — a lost-block bug the agreement checker must catch.
type mutantFailing struct {
	arenaModel
	n, count int
}

func (m *mutantFailing) Alloc(size int) (int, error) {
	m.count++
	if m.count%m.n == 0 {
		return 0, ErrOutOfMemory
	}
	return m.arenaModel.Alloc(size)
}

// mutantLeaking wraps an allocator and silently drops every other Free —
// a leak the agreement checker must catch through accounting or through
// premature exhaustion.
type mutantLeaking struct {
	arenaModel
	count int
}

func (m *mutantLeaking) Free(addr, size int) {
	m.count++
	if m.count%2 == 0 {
		return
	}
	m.arenaModel.Free(addr, size)
}

func TestAgreementCheckerCatchesMutants(t *testing.T) {
	capacity := 1 << 14
	err := checkAgreement(&mutantFailing{arenaModel: NewArena(capacity), n: 97}, NewSpanArena(capacity), 64, 1, 4000)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("checker missed the spurious-failure mutant (err=%v)", err)
	}
	err = checkAgreement(&mutantLeaking{arenaModel: NewArena(capacity)}, NewSpanArena(capacity), 64, 2, 4000)
	if err == nil {
		t.Error("checker missed the leaking mutant")
	}
	// And the unmutated pair still passes under the same seeds.
	for _, seed := range []int64{1, 2} {
		if err := checkAgreement(NewArena(capacity), NewSpanArena(capacity), 64, seed, 4000); err != nil {
			t.Errorf("seed %d: clean pair fails: %v", seed, err)
		}
	}
}

func TestInfoCheckerCatchesMutants(t *testing.T) {
	// A corrupted Info that under-reports HeapBytes must violate the
	// alloc+overhead<=heap identity.
	a := NewArena(1 << 16)
	skew := func() Info {
		in := a.Info()
		in.HeapBytes -= a.PageSize()
		return in
	}
	if err := checkInfo(a, skew, 3, 2000); err == nil {
		t.Error("checker missed the skewed-heap Info mutant")
	}
	// A corrupted Info whose Overhead grows spuriously (free-list bytes
	// counted as slack) must trip the monotonicity window or the
	// accounting identity once frees occur.
	b := NewArena(1 << 16)
	drift := 0
	leakyOverhead := func() Info {
		in := b.Info()
		in.Overhead -= drift
		drift++
		return in
	}
	if err := checkInfo(b, leakyOverhead, 4, 2000); err == nil {
		t.Error("checker missed the drifting-overhead Info mutant")
	}
}

// checkSizeAt replays a randomized alloc/free/reset script and returns
// an error if sizeAt, after any step, disagrees with the size passed to
// Alloc for any live extent. Resets are rare enough that the arena
// fills between them. Small sizes are multiples of 8, as every
// size the heap allocates is, so a block's class size is its own; large
// sizes are arbitrary, so a run must answer its requested size, not its
// pages'. tail counts the extents checked on the short tail page, so a
// caller can tell the script reached it.
func checkSizeAt(a *Arena, sizeAt func(addr int) int, seed int64, steps int) (tail int, err error) {
	rng := rand.New(rand.NewSource(seed))
	type ext struct{ addr, size int }
	var live []ext
	ps := a.PageSize()
	tailAddr := a.Size() &^ (ps - 1)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(1000); {
		case op == 0:
			a.Reset()
			live = live[:0]
		case op < 650 || len(live) == 0:
			size := 8 * (1 + rng.Intn(40))
			if rng.Intn(6) == 0 {
				size = ps + 1 + rng.Intn(4*ps)
			}
			if addr, err := a.Alloc(size); err == nil {
				live = append(live, ext{addr, size})
			}
		default:
			i := rng.Intn(len(live))
			a.Free(live[i].addr, live[i].size)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, e := range live {
			if got := sizeAt(e.addr); got != e.size {
				return tail, fmt.Errorf("step %d: SizeAt(%d) = %d, allocated %d", step, e.addr, got, e.size)
			}
			if e.addr >= tailAddr {
				tail++
			}
		}
	}
	return tail, nil
}

// TestArenaSizeAt: small blocks, large runs and the short tail page
// answer the size they were allocated at, before and after Resets. The
// 1000-byte and 64 KiB + 200 arenas have a short tail page (232 and 200
// bytes) that the script fills; the 1 MiB one has none.
func TestArenaSizeAt(t *testing.T) {
	for _, capacity := range []int{1000, 64<<10 + 200, 1 << 20} {
		a := NewArena(capacity)
		tail, err := checkSizeAt(a, a.SizeAt, int64(capacity), 6000)
		if err != nil {
			t.Errorf("capacity %d: %v", capacity, err)
		}
		if hasTail := capacity%a.PageSize() >= 8; hasTail != (tail > 0) {
			t.Errorf("capacity %d: %d checks on the short tail page, want some iff it has one", capacity, tail)
		}
		if err := a.checkInvariants(); err != nil {
			t.Errorf("capacity %d: %v", capacity, err)
		}
	}
}

// TestCompactedSizes: after Compact, every live object of a fragmented
// heap reads its own instance size, small and large, from the arena
// that replaced the old one.
func TestCompactedSizes(t *testing.T) {
	compacted, large := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		h := fragment(seed)
		if !h.Compact() {
			continue
		}
		compacted++
		n, err := checkHeapSizes(h, h.Arena().SizeAt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		large += n
	}
	if compacted == 0 || large == 0 {
		t.Fatalf("%d fragmented heaps compacted, holding %d large objects: want some of each", compacted, large)
	}
}

// checkHeapSizes returns an error if sizeAt disagrees, at any live
// object's address, with the instance size of its class. large counts
// the objects checked that span a page run.
func checkHeapSizes(h *Heap, sizeAt func(addr int) int) (large int, err error) {
	h.ForEachLive(func(id HandleID) {
		want := InstanceSize(h.ClassDef(h.ClassOf(id)), 0)
		if want > h.Arena().PageSize() {
			large++
		}
		if got := sizeAt(h.AddrOf(id)); got != want && err == nil {
			err = fmt.Errorf("handle %d at %d: size %d, want %d", id, h.AddrOf(id), got, want)
		}
	})
	return large, err
}

// TestSizeAtCheckersCatchRoundedRuns: a SizeAt that answers a large
// run's whole pages fails both checkers.
func TestSizeAtCheckersCatchRoundedRuns(t *testing.T) {
	rounded := func(a *Arena) func(int) int {
		return func(addr int) int {
			s, ps := a.SizeAt(addr), a.PageSize()
			if s > ps {
				s = (s + ps - 1) &^ (ps - 1)
			}
			return s
		}
	}
	a := NewArena(1 << 16)
	if _, err := checkSizeAt(a, rounded(a), 1, 2000); err == nil {
		t.Error("checkSizeAt passes a SizeAt that rounds large runs to pages")
	}
	caught := false
	for seed := int64(1); seed <= 40 && !caught; seed++ {
		if h := fragment(seed); h.Compact() {
			_, err := checkHeapSizes(h, rounded(h.Arena()))
			caught = err != nil
		}
	}
	if !caught {
		t.Error("checkHeapSizes passes a SizeAt that rounds large runs to pages")
	}
}
