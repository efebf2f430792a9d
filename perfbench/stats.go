package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks (the "exclusive" rule Python's
// statistics.quantiles(method="exclusive") uses, for q·(n+1) inside the
// sample; clamped to the extremes outside it). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(len(s)) {
		return s[len(s)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

// spread is the distance between the first and third quartiles as a share
// of the median: the run-to-run steadiness figure the benchmark's bounds are
// judged against.
func spread(xs []float64) (median, q1, q3, rel float64) {
	median = quantile(xs, 0.5)
	q1 = quantile(xs, 0.25)
	q3 = quantile(xs, 0.75)
	if median != 0 {
		rel = (q3 - q1) / math.Abs(median)
	}
	return median, q1, q3, rel
}
