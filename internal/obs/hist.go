package obs

import (
	"math"
	"math/bits"
	"time"
)

// HistBuckets is the fixed bucket count of every Histogram: bucket 0
// holds exact zeros, bucket i (i >= 1) holds values in
// [2^(i-1), 2^i) nanoseconds, and the last bucket absorbs everything
// from 2^38 ns (~4.6 minutes) up. Forty buckets cover the full plausible range
// of a collection pause, so recording never needs a resize — the
// zero-allocation guarantee is structural, not amortised.
const HistBuckets = 40

// Histogram is a log-scale fixed-bucket distribution. The zero value
// is empty and ready to record. It is a plain value type (one fixed
// array plus a counter): shards embed it, merges copy it, and two
// histograms can be compared with ==.
type Histogram struct {
	// Count is the number of recorded values.
	Count uint64 `json:"count"`
	// Buckets holds the per-bucket counts; see HistBuckets for bounds.
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// bucketOf maps a value to its bucket index: the bit length of v,
// clamped to the table. Negative values (a clock that stepped
// backwards mid-cycle) clamp to bucket 0 rather than corrupting the
// table.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Record adds one value. One shift, one compare, two increments — the
// whole hot-path cost of the metrics core.
func (h *Histogram) Record(v int64) {
	h.Buckets[bucketOf(v)]++
	h.Count++
}

// Merge accumulates o into h. Bucket-wise addition is commutative and
// associative, so merging any permutation of the same shard histograms
// produces identical buckets — the order-independence the engine's
// cell-completion merge relies on.
func (h *Histogram) Merge(o *Histogram) {
	h.Count += o.Count
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// BucketBound reports the exclusive upper bound of bucket i in
// nanoseconds (bucket 0's bound is 1: it holds exact zeros).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	return 1 << uint(i)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) of the recorded values, by nearest rank — a
// conservative estimate, as a histogram cannot resolve within a bucket.
// Zero when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	// The rank is ceil(q·Count) in [1, Count]; shaving 1e-12 keeps a
	// product that rounds just above an integer (0.07·100 is
	// 7.000000000000001) on that integer.
	target := uint64(min(max(math.Ceil(q*float64(h.Count)*(1-1e-12)), 1), float64(h.Count)))
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			return time.Duration(BucketBound(i))
		}
	}
	return time.Duration(BucketBound(HistBuckets - 1))
}

// Max returns the upper bound of the highest non-empty bucket; zero
// when the histogram is empty.
func (h *Histogram) Max() time.Duration {
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.Buckets[i] != 0 {
			return time.Duration(BucketBound(i))
		}
	}
	return 0
}
