package main

import (
	"cmp"
	"math"
	"sort"
)

// median returns the median of vs (mean of the two middle values for an
// even count) without reordering the caller's slice; 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest value with at least p percent of the
// samples at or below it.
func percentile[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[rankOf(len(sorted), p)]
}

// rankOf is the 0-based nearest-rank index of percentile p among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps p/100*n from landing a hair above a whole number
	// (99.99% of 100000) and being rounded up past it.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(k, 0), n-1)
}

// tailCandidates are the percentiles tailOf chooses among, highest first.
var tailCandidates = []float64{99.999, 99.99, 99.9, 99, 95, 90}

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before it is reported: fewer, and the figure is one scheduler
// stall rather than a property of the system.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that has at
// least minBeyond samples beyond it among n samples, with its index in
// tailCandidates. A sample too small for any candidate (under 100
// values) has no tail to speak of: the answer is then (50, -1).
func tailPercentile(n int) (pct float64, idx int) {
	for k, p := range tailCandidates {
		if n-1-rankOf(n, p) >= minBeyond {
			return p, k
		}
	}
	return 50, -1
}

// iqrShare is the benchmark contract's spread: the distance between the
// first and third quartile of vs as a share of their median, with the
// quartiles placed as Python's statistics.quantiles(vs, n=4) places them
// (the "exclusive" method). It needs at least two values.
func iqrShare(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4-quantiles, exclusive method
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
