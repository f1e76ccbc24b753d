package workload

import "math/rand"

// math/rand's additive lagged-Fibonacci parameters: the source's output
// stream obeys x[n] = x[n-rngLen] + x[n-rngTap] mod 2⁶⁴.
const (
	rngLen   = 607
	rngTap   = 273
	int31Max = 1<<31 - 1
)

// generator is the analogs' random source: the exact value stream of
// rand.New(rand.NewSource(seed)), drawn without an interface call or a
// ring step per value (DESIGN.md §2 "The generator"). vec holds one
// block of 607 consecutive source outputs; refill advances it to the
// next block in place, and Intn and Float64 reproduce math/rand's Go 1
// reductions bit for bit. Float64 fits Go's default inline budget;
// Intn's common case (cost 120, the call to intnSlow counted) is what
// the profile-guided build inlines into the analogs' hot loops.
type generator struct {
	pos uint // next unread index into vec; rngLen when spent
	vec [rngLen]uint64
}

// newRNG returns the deterministic per-workload generator.
func newRNG(name string, size int) *generator { return seeded(Seed(name, size)) }

// seeded returns the generator of rand.NewSource(seed). Seeding stays in
// math/rand: the source's first rngLen outputs are the first block.
func seeded(seed int64) *generator {
	src := rand.NewSource(seed).(rand.Source64)
	g := &generator{}
	for i := range g.vec {
		g.vec[i] = src.Uint64()
	}
	return g
}

// refill replaces the spent block with the next rngLen outputs. The
// first rngTap entries add values of the old block that are still
// unread by the loop; the rest add entries this loop just wrote.
func (g *generator) refill() {
	v := &g.vec
	for i := 0; i < rngTap; i++ {
		v[i] += v[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
}

// uint64 is the source's next output (rngSource.Uint64).
func (g *generator) uint64() uint64 {
	i := g.pos
	if i >= rngLen {
		g.refill()
		i = 0
	}
	g.pos = i + 1
	return g.vec[i]
}

// int31 is math/rand's Int31: the top 31 bits of the 63-bit Int63.
func (g *generator) int31() uint32 {
	return uint32(g.uint64()>>32) & int31Max
}

// int63 is math/rand's Int63: the source's output without its top bit.
func (g *generator) int63() int64 {
	return int64(g.uint64() & (1<<63 - 1))
}

// Intn is math/rand's Intn. For 0 < n < 1<<31 that is Int31n: v%n,
// redrawn while v is at or above the largest multiple of n that fits in
// 31 bits. v-v%n > 1<<31-n is that test (Int31n's v > max) without
// Int31n's second divide, and for a power of two it is never true and
// v%n is Int31n's mask. The common case — a value left in the block,
// accepted — is the whole inlined body; the rest is intnSlow.
func (g *generator) Intn(n int) int {
	i, m := g.pos, uint32(n)
	if i < rngLen && uint(n-1) < int31Max {
		v := uint32(g.vec[i]>>32) & int31Max
		if q := v % m; v-q <= 1<<31-m {
			g.pos = i + 1
			return int(q)
		}
	}
	return g.intnSlow(n)
}

// intnSlow is Intn from the top, for a spent block, a rejected draw,
// n <= 0 (math/rand's panic) and n >= 1<<31 (math/rand's Int63n). It
// stays out of line so the profile-guided build inlines only Intn's
// fast path into the analogs' loops, not this and the block refill.
//
//go:noinline
func (g *generator) intnSlow(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > int31Max {
		m := int64(n)
		if m&(m-1) == 0 {
			return int(g.int63() & (m - 1))
		}
		max := int64((1 << 63) - 1 - (1<<63)%uint64(m))
		v := g.int63()
		for v > max {
			v = g.int63()
		}
		return int(v % m)
	}
	m := uint32(n)
	for {
		v := g.int31()
		if q := v % m; v-q <= 1<<31-m {
			return int(q)
		}
	}
}

// Float64 is Go 1's Float64: Int63()/(1<<63), drawn again on the rare
// value that rounds up to 1.
func (g *generator) Float64() float64 {
	for {
		if f := float64(g.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
