package heap

import "math/bits"

// Bitset is a word-packed bit vector over handle IDs — the mark/live
// scratch representation of the collection cycle. One cache line holds
// 512 handles' worth of bits (the byte-wide []bool it replaced held
// 64), and the sweep consumes it word-at-a-time: garbage in a 64-handle
// window is one AND-NOT and a TrailingZeros loop instead of 64 loads
// and branches.
type Bitset []uint64

// BitsetWords reports the number of uint64 words needed to cover n
// bits.
func BitsetWords(n int) int { return (n + 63) >> 6 }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// NextSet returns the index of the first set bit at or after i, or -1 if
// none. It scans word-at-a-time, so a sparse upward search (the recycle
// index's best-fit class scan) costs O(words), not O(bits).
func (b Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if m := b[w] &^ (1<<(uint(i)&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for w++; w < len(b); w++ {
		if m := b[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Count reports the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
