package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median with its
// quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a
// spread computed here equals the one the driver computes.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // after clamping j, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPermilles are the candidates for the reported tail, highest first
// (per mille, so the sample arithmetic stays in integers).
var tailPermilles = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it: a p99 of 50 samples is the maximum under
// another name. It reports 50 when even p75 is too thin.
func tailPercentile(n int) float64 {
	for _, pm := range tailPermilles {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10
		}
	}
	return 50
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
