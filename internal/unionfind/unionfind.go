// Package unionfind implements Tarjan's disjoint-set forests with union by
// rank and path compression, the data structure the contaminated garbage
// collector uses to maintain its equilive equivalence relation (thesis
// §2.2, §3.1.1).
//
// Two representations are provided:
//
//   - DSU: the straightforward one, a parent word plus a rank word per
//     element ("one 'ancestor' field and one integer field", §3.1.1).
//   - Packed: the shrunken form of §3.5, which stores the rank in the low
//     bits of the parent word. The thesis observes that ranks never exceed
//     ten in practice and that handles are aligned, freeing the low four
//     bits; we reproduce exactly that layout.
//
// Both satisfy the Forest interface and are observationally equivalent
// (property-tested); the packed form halves the per-element metadata.
//
// The collector no longer runs this package: internal/core keeps its
// forest in its own per-object record (objMeta.link — the Packed word
// with the set's slot where a root's parent would be). The package stays
// as the reference the collector's differential test drives side by
// side with it, and as the subject of the benchmark's unionfind probes.
package unionfind

// Forest is the operations CG needs from a disjoint-set structure.
// Elements are dense non-negative integers (handle indices).
type Forest interface {
	// MakeSet ensures element x exists as a singleton set. Growing the
	// forest to include x is idempotent.
	MakeSet(x int)
	// Find returns the canonical representative of x's set, applying
	// path compression.
	Find(x int) int
	// Union merges the sets containing x and y and returns the
	// representative of the merged set. Union of an element with itself
	// (or two elements already in one set) is a no-op returning the
	// existing representative.
	Union(x, y int) int
	// Reset makes x, which must exist, a singleton set again regardless
	// of prior state. Callers must guarantee no other element names x
	// as an ancestor; the CG resetting pass (§3.6) re-resets every live
	// object, which re-establishes that invariant globally.
	Reset(x int)
	// Len reports the number of elements in the forest.
	Len() int
}

// DSU is the wide representation: separate parent and rank slices.
// The zero value is an empty, ready-to-use forest.
type DSU struct {
	parent []int32
	rank   []int8
}

// NewDSU returns a forest pre-grown to n singleton elements.
func NewDSU(n int) *DSU {
	d := &DSU{}
	if n > 0 {
		d.MakeSet(n - 1)
	}
	return d
}

// MakeSet implements Forest. Existing elements are one compare;
// extension is the cold path, and exact: a caller that adds elements
// one at a time calls Reserve ahead of them.
func (d *DSU) MakeSet(x int) {
	if x >= len(d.parent) {
		d.Reserve(x + 1)
	}
}

// Reserve grows the forest to n elements in one step, the new ones
// singletons; a forest that already has n is left alone. CG calls it
// with the heap's handle-table capacity, so the forest grows when that
// table does. Capacity kept by Truncate is reused, and every new
// element is rewritten from its index: stale contents never surface.
func (d *DSU) Reserve(n int) {
	old := len(d.parent)
	if n <= old {
		return
	}
	if n > cap(d.parent) {
		d.parent = append(make([]int32, 0, n), d.parent...)
		d.rank = append(make([]int8, 0, n), d.rank...)
	}
	d.parent, d.rank = d.parent[:n], d.rank[:n]
	for i := old; i < n; i++ {
		d.parent[i], d.rank[i] = int32(i), 0
	}
}

// Len implements Forest.
func (d *DSU) Len() int { return len(d.parent) }

// Find implements Forest. It uses the two-pass path-compression variant:
// one pass to the root, one pass rewriting every traversed parent link to
// point at the root, exactly as described in §3.1.1 ("Every object that
// find is called on has its parent updated to be the root").
func (d *DSU) Find(x int) int {
	root := x
	for int(d.parent[root]) != root {
		root = int(d.parent[root])
	}
	for int(d.parent[x]) != root {
		d.parent[x], x = int32(root), int(d.parent[x])
	}
	return root
}

// Union implements Forest using union by rank: the higher-rank root
// becomes the parent; on a tie one is chosen and its rank increments.
func (d *DSU) Union(x, y int) int {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return rx
	}
	switch {
	case d.rank[rx] < d.rank[ry]:
		rx, ry = ry, rx
	case d.rank[rx] == d.rank[ry]:
		d.rank[rx]++
	}
	d.parent[ry] = int32(rx)
	return rx
}

// Reset implements Forest.
func (d *DSU) Reset(x int) {
	d.parent[x] = int32(x)
	d.rank[x] = 0
}

// RankOf exposes x's rank for tests and for the §4.4 block statistics.
func (d *DSU) RankOf(x int) int { return int(d.rank[x]) }

// Truncate empties the forest while keeping its capacity: MakeSet
// re-derives every element from its index, so a truncated forest is
// observably a fresh one, and a forest can serve run after run.
func (d *DSU) Truncate() {
	d.parent = d.parent[:0]
	d.rank = d.rank[:0]
}

// QuickSame is a one-pass, compression-free check that x and y are
// already in one set. It answers true only when that is certain from a
// single parent load per element (identical elements, or identical
// immediate parents — the common case after path compression); false
// means "unknown", and the caller falls back to two full Finds. This is
// the cheap first stage of the putfield fast path: after the first
// contamination of a hot object pair, every subsequent store between
// them resolves here without touching rank words or rewriting parents.
func (d *DSU) QuickSame(x, y int) bool {
	if x == y {
		return true
	}
	px, py := d.parent[x], d.parent[y]
	// Roots have parent == self, so px == py already implies x and y
	// share a tree; a root's parent can never equal another element's.
	return px == py || int(px) == y || int(py) == x
}

// rankBits is the number of low bits of the packed parent word reserved
// for the rank. The thesis (§3.5) reserves four bits after observing that
// ranks stay below ten on SPECjvm98; four bits bound the rank at 15, which
// by the union-by-rank size bound (2^rank ≤ n) accommodates forests of up
// to 2^15 elements per tree before saturation. Above that we simply stop
// incrementing the rank — unions remain correct, merely less balanced,
// matching the thesis's "maintained so that the rank never exceeds a
// predetermined threshold".
const rankBits = 4

// rankMask extracts the rank from a packed word.
const rankMask = 1<<rankBits - 1

// maxPackedRank is the saturation ceiling for packed ranks.
const maxPackedRank = rankMask

// Packed is the §3.5 representation: a single word per element whose low
// rankBits hold the rank and whose high bits hold the parent index (the
// "address", which is rankBits-aligned by construction). The zero value is
// an empty, ready-to-use forest.
type Packed struct {
	word []uint32
}

// NewPacked returns a packed forest pre-grown to n singleton elements.
func NewPacked(n int) *Packed {
	p := &Packed{}
	if n > 0 {
		p.MakeSet(n - 1)
	}
	return p
}

func pack(parent, rank int) uint32 { return uint32(parent)<<rankBits | uint32(rank) }

func (p *Packed) parentOf(x int) int { return int(p.word[x] >> rankBits) }

func (p *Packed) rankOf(x int) int { return int(p.word[x] & rankMask) }

func (p *Packed) setParent(x, parent int) {
	p.word[x] = pack(parent, p.rankOf(x))
}

// MakeSet implements Forest; see DSU.MakeSet.
func (p *Packed) MakeSet(x int) {
	if x >= len(p.word) {
		p.Reserve(x + 1)
	}
}

// Reserve grows the forest to n elements in one step; see DSU.Reserve.
func (p *Packed) Reserve(n int) {
	old := len(p.word)
	if n <= old {
		return
	}
	if n > cap(p.word) {
		p.word = append(make([]uint32, 0, n), p.word...)
	}
	p.word = p.word[:n]
	for i := old; i < n; i++ {
		p.word[i] = pack(i, 0)
	}
}

// Len implements Forest.
func (p *Packed) Len() int { return len(p.word) }

// Find implements Forest with the same two-pass compression as DSU.
func (p *Packed) Find(x int) int {
	root := x
	for p.parentOf(root) != root {
		root = p.parentOf(root)
	}
	for p.parentOf(x) != root {
		next := p.parentOf(x)
		p.setParent(x, root)
		x = next
	}
	return root
}

// Union implements Forest with saturating union by rank.
func (p *Packed) Union(x, y int) int {
	rx, ry := p.Find(x), p.Find(y)
	if rx == ry {
		return rx
	}
	switch {
	case p.rankOf(rx) < p.rankOf(ry):
		rx, ry = ry, rx
	case p.rankOf(rx) == p.rankOf(ry):
		if r := p.rankOf(rx); r < maxPackedRank {
			p.word[rx] = pack(p.parentOf(rx), r+1)
		}
	}
	p.setParent(ry, rx)
	return rx
}

// Reset implements Forest.
func (p *Packed) Reset(x int) {
	p.word[x] = pack(x, 0)
}

// RankOf exposes x's (saturating) rank for tests and statistics.
func (p *Packed) RankOf(x int) int { return p.rankOf(x) }

// Truncate empties the forest while keeping its capacity; see
// DSU.Truncate.
func (p *Packed) Truncate() {
	p.word = p.word[:0]
}

// QuickSame is the one-pass same-set check; see DSU.QuickSame.
func (p *Packed) QuickSame(x, y int) bool {
	if x == y {
		return true
	}
	px, py := p.parentOf(x), p.parentOf(y)
	return px == py || px == y || py == x
}

// Compile-time interface checks.
var (
	_ Forest = (*DSU)(nil)
	_ Forest = (*Packed)(nil)
)
