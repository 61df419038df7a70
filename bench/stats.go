package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p% of the
// samples at or below it.  An empty slice yields 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := rankOf(len(asc), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples.
// The small slack keeps a product like 99.9% of 10000, which floating
// point puts a hair above 9990, from rounding up a whole rank.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func median(vals []float64) float64 { return percentile(sorted(vals), 50) }

// tailLadder is the set of tail percentiles a timing may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// beyond is how many of n samples lie strictly past the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - rankOf(n, p)
}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten samples beyond it, so a reported tail is never set
// by a handful of outliers.  With too few samples for any tail it
// returns 50: the median is all such a timing supports.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the default "exclusive"
// method), which is what the acceptance check of BENCHMARK.json uses.
// Fewer than two samples have no spread: all three equal the sample.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	asc := sorted(vals)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
