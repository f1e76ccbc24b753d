package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// genBounds are the Intn arguments the oracle interleaves: the
// power-of-two mask, Int31n's divide-and-reject path at small and
// near-2³¹ bounds, and (where int is 64 bits) Int63n's branch. 1<<30+1
// and 1<<62+1 reject about half their draws, so the rejection loops run
// too.
func genBounds() []int {
	ns := []int{1, 2, 3, 12, 96, 256, 1 << 10, 1 << 14, 1 << 20, 1<<30 + 1, 1<<31 - 1}
	if bits.UintSize == 64 {
		for _, sh := range []uint{31, 40, 62} {
			ns = append(ns, 1<<sh)
		}
		ns = append(ns, ns[len(ns)-1]+1)
	}
	return ns
}

// sameDraws makes draws interleaved calls to g and want, the operation
// chosen by a step counter both sides share, and reports the first
// disagreement.
func sameDraws(t testing.TB, g *generator, want *rand.Rand, ns []int, draws int) {
	t.Helper()
	for i := 0; i < draws; i++ {
		// A multiplicative step over the op table, so neighbouring
		// draws take different paths and every op lands on every
		// block offset.
		k := int(uint32(i) * 2654435761 >> 16 % uint32(len(ns)+1))
		if k == len(ns) {
			if got, w := g.Float64(), want.Float64(); got != w {
				t.Fatalf("draw %d: Float64() = %v, math/rand %v", i, got, w)
			}
			continue
		}
		if got, w := g.Intn(ns[k]), want.Intn(ns[k]); got != w {
			t.Fatalf("draw %d: Intn(%d) = %d, math/rand %d", i, ns[k], got, w)
		}
	}
}

// TestGeneratorMatchesMathRand is the generator's oracle: for every
// registered analog's seed at sizes 1, 10 and 100, 10⁵ interleaved
// Intn and Float64 draws equal rand.New(rand.NewSource(seed))'s.
func TestGeneratorMatchesMathRand(t *testing.T) {
	ns := genBounds()
	for _, name := range Names() {
		for _, size := range []int{1, 10, 100} {
			want := rand.New(rand.NewSource(Seed(name, size)))
			sameDraws(t, newRNG(name, size), want, ns, 100_000)
		}
	}
}

// TestGeneratorPanicsLikeMathRand: a non-positive bound panics with
// math/rand's value, and the panic consumes no draw.
func TestGeneratorPanicsLikeMathRand(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	g, want := newRNG("jack", 1), rand.New(rand.NewSource(Seed("jack", 1)))
	for _, n := range []int{0, -1, -(1 << 31), math.MinInt} {
		got := recovered(func() { g.Intn(n) })
		w := recovered(func() { want.Intn(n) })
		if got == nil || got != w {
			t.Fatalf("Intn(%d) panicked with %v, math/rand with %v", n, got, w)
		}
	}
	sameDraws(t, g, want, genBounds(), rngLen+1)
}

// FuzzGeneratorMatchesMathRand draws Intn(n) and Float64 in turn from
// both generators on an arbitrary seed; seeds in testdata/fuzz cover
// both Intn branches and the first block boundaries.
func FuzzGeneratorMatchesMathRand(f *testing.F) {
	f.Add(int64(1), 3, uint16(1500))
	f.Add(Seed("compress", 100), 256, uint16(2000))
	f.Add(int64(-7), 1<<31-1, uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, n int, draws uint16) {
		g, want := seeded(seed), rand.New(rand.NewSource(seed))
		if n <= 0 {
			// The panic is TestGeneratorPanicsLikeMathRand's; fold
			// the bound into range so every input draws.
			n = n&(1<<20-1) + 1
		}
		sameDraws(t, g, want, []int{n}, int(draws%4096))
	})
}
