package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// forests returns one fresh instance of every Forest implementation so
// each test exercises both representations.
func forests(n int) map[string]Forest {
	return map[string]Forest{
		"DSU":    NewDSU(n),
		"Packed": NewPacked(n),
	}
}

func TestSingletonFind(t *testing.T) {
	for name, f := range forests(8) {
		for i := 0; i < 8; i++ {
			if got := f.Find(i); got != i {
				t.Errorf("%s: Find(%d) = %d before any union, want %d", name, i, got, i)
			}
		}
	}
}

func TestUnionMergesAndFindAgrees(t *testing.T) {
	for name, f := range forests(10) {
		f.Union(1, 2)
		f.Union(3, 4)
		if f.Find(1) != f.Find(2) {
			t.Errorf("%s: 1 and 2 should share a representative", name)
		}
		if f.Find(3) != f.Find(4) {
			t.Errorf("%s: 3 and 4 should share a representative", name)
		}
		if f.Find(1) == f.Find(3) {
			t.Errorf("%s: {1,2} and {3,4} must remain distinct", name)
		}
		f.Union(2, 3)
		for _, x := range []int{1, 2, 3, 4} {
			if f.Find(x) != f.Find(1) {
				t.Errorf("%s: element %d not merged into the big set", name, x)
			}
		}
		if f.Find(5) == f.Find(1) {
			t.Errorf("%s: untouched element joined a set", name)
		}
	}
}

func TestUnionReturnsRepresentative(t *testing.T) {
	for name, f := range forests(6) {
		r := f.Union(0, 5)
		if r != f.Find(0) || r != f.Find(5) {
			t.Errorf("%s: Union returned %d, Find says %d/%d", name, r, f.Find(0), f.Find(5))
		}
		// Self-union and repeated union are no-ops.
		if got := f.Union(0, 0); got != r {
			t.Errorf("%s: self-union changed representative: %d != %d", name, got, r)
		}
		if got := f.Union(5, 0); got != r {
			t.Errorf("%s: repeated union changed representative: %d != %d", name, got, r)
		}
	}
}

func TestMakeSetGrowsIdempotently(t *testing.T) {
	for name, f := range forests(0) {
		f.MakeSet(4)
		if f.Len() != 5 {
			t.Errorf("%s: Len = %d after MakeSet(4), want 5", name, f.Len())
		}
		f.MakeSet(2) // smaller: no shrink
		if f.Len() != 5 {
			t.Errorf("%s: Len changed on idempotent MakeSet: %d", name, f.Len())
		}
		if f.Find(4) != 4 {
			t.Errorf("%s: grown element not a singleton", name)
		}
	}
}

// TestReserveGrowsInOneStep: Reserve takes a forest to n elements at
// once, keeps the sets it holds, and makes every new element a rank-0
// singleton, over capacity a Truncate left dirty as well as over a
// fresh allocation.
func TestReserveGrowsInOneStep(t *testing.T) {
	type forest interface {
		Forest
		Reserve(n int)
		Truncate()
		RankOf(x int) int
	}
	for name, f := range map[string]forest{"dsu": NewDSU(0), "packed": NewPacked(0)} {
		for pass, n := range []int{64, 32, 200} { // fresh, within dirty capacity, past it
			f.Reserve(4)
			f.Union(0, 1)
			f.Union(2, 3)
			f.Union(1, 3)
			root := f.Find(0)
			f.Reserve(n)
			f.Reserve(n / 2) // smaller: no shrink
			if f.Len() != n {
				t.Fatalf("%s pass %d: Len = %d after Reserve(%d)", name, pass, f.Len(), n)
			}
			for x := 0; x < 4; x++ {
				if f.Find(x) != root {
					t.Fatalf("%s pass %d: element %d left its set across Reserve", name, pass, x)
				}
			}
			for x := 4; x < n; x++ {
				if f.Find(x) != x || f.RankOf(x) != 0 {
					t.Fatalf("%s pass %d: new element %d has root %d, rank %d", name, pass, x, f.Find(x), f.RankOf(x))
				}
			}
			for x := 4; x+1 < n; x += 2 {
				f.Union(x, x+1) // dirty what Truncate keeps
			}
			f.Truncate()
		}
	}
}

func TestReset(t *testing.T) {
	for name, f := range forests(4) {
		f.Union(0, 1)
		f.Union(1, 2)
		// Reset a leaf (non-representative with no children after the
		// unions above collapse paths via Find).
		f.Find(0)
		f.Find(1)
		f.Find(2)
		root := f.Find(2)
		var leaf int
		for _, c := range []int{0, 1, 2} {
			if c != root {
				leaf = c
				break
			}
		}
		f.Reset(leaf)
		if f.Find(leaf) != leaf {
			t.Errorf("%s: Reset(%d) did not detach it", name, leaf)
		}
	}
}

// TestEquivalenceRelation checks reflexivity, symmetry and transitivity of
// the "same representative" relation after a random union workload — the
// three properties §2.2 demands of equilive.
func TestEquivalenceRelation(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	for name, f := range forests(n) {
		for i := 0; i < 100; i++ {
			f.Union(rng.Intn(n), rng.Intn(n))
		}
		same := func(a, b int) bool { return f.Find(a) == f.Find(b) }
		for a := 0; a < n; a++ {
			if !same(a, a) {
				t.Fatalf("%s: reflexivity violated at %d", name, a)
			}
		}
		for i := 0; i < 200; i++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if same(a, b) != same(b, a) {
				t.Fatalf("%s: symmetry violated at (%d,%d)", name, a, b)
			}
			if same(a, b) && same(b, c) && !same(a, c) {
				t.Fatalf("%s: transitivity violated at (%d,%d,%d)", name, a, b, c)
			}
		}
	}
}

// TestPackedMatchesWide drives both representations with an identical
// random operation stream and demands identical partitions throughout —
// the §3.5 claim that packing is a pure representation change.
func TestPackedMatchesWide(t *testing.T) {
	type ops struct {
		Pairs []struct{ A, B uint8 }
	}
	check := func(o ops) bool {
		const n = 256
		d, p := NewDSU(n), NewPacked(n)
		for _, pr := range o.Pairs {
			d.Union(int(pr.A), int(pr.B))
			p.Union(int(pr.A), int(pr.B))
		}
		// Partitions are equal iff the "same set" relation agrees on a
		// spanning sample; check every consecutive pair and every pair
		// from the op stream.
		for i := 0; i+1 < n; i++ {
			if (d.Find(i) == d.Find(i+1)) != (p.Find(i) == p.Find(i+1)) {
				return false
			}
		}
		for _, pr := range o.Pairs {
			if (d.Find(int(pr.A)) == d.Find(int(pr.B))) != (p.Find(int(pr.A)) == p.Find(int(pr.B))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRankDepthBound property-checks the classic union-by-rank guarantee:
// the find path length never exceeds the representative's rank, and rank
// is at most log2(n) — the "(nearly) constant work per storage reference"
// claim of §2.2 rests on this.
func TestRankDepthBound(t *testing.T) {
	check := func(pairs []struct{ A, B uint8 }) bool {
		const n = 256
		d := NewDSU(n)
		for _, pr := range pairs {
			d.Union(int(pr.A), int(pr.B))
		}
		for i := 0; i < n; i++ {
			if d.RankOf(d.Find(i)) > 8 { // log2(256)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedRankSaturates verifies that the packed form caps the rank at
// its 4-bit ceiling without corrupting the partition.
func TestPackedRankSaturates(t *testing.T) {
	// Force rank growth: repeatedly union equal-rank trees.
	n := 1 << 17
	p := NewPacked(n)
	for span := 1; span < n; span *= 2 {
		for i := 0; i+span < n; i += 2 * span {
			p.Union(i, i+span)
		}
	}
	for i := 0; i < n; i++ {
		if p.Find(i) != p.Find(0) {
			t.Fatalf("element %d escaped the single merged set", i)
		}
		if r := p.RankOf(i); r > maxPackedRank {
			t.Fatalf("rank %d exceeds packed ceiling %d", r, maxPackedRank)
		}
	}
}

// TestFindIdempotent: Find(Find(x)) == Find(x) and Find never changes the
// partition (quick property).
func TestFindIdempotent(t *testing.T) {
	check := func(pairs []struct{ A, B uint8 }, probe uint8) bool {
		const n = 256
		for _, f := range forests(n) {
			for _, pr := range pairs {
				f.Union(int(pr.A), int(pr.B))
			}
			r1 := f.Find(int(probe))
			r2 := f.Find(r1)
			if r1 != r2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFindWide(b *testing.B) {
	benchForest(b, func(n int) Forest { return NewDSU(n) })
}

func BenchmarkUnionFindPacked(b *testing.B) {
	benchForest(b, func(n int) Forest { return NewPacked(n) })
}

// benchForest measures the §3.5 ablation: wide vs packed metadata under a
// union-heavy load resembling contamination traffic.
func benchForest(b *testing.B, mk func(int) Forest) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(42))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := mk(n)
		for _, p := range pairs {
			f.Union(p[0], p[1])
		}
		for j := 0; j < n; j++ {
			f.Find(j)
		}
	}
}
