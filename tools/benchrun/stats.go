package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same method as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the ones the
// benchmark's acceptance check computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs. Failed operations enter xs as +Inf, so a percentile that reaches
// into the failures reads +Inf: a refused request misses every latency
// limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n values.
// The small slack keeps float error from pushing an exact rank (p90 of 100
// values is the 90th) one place up.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailLadder lists the percentiles tailPercentile considers, in
// increasing order.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten samples beyond it, with its value. With fewer than
// twenty samples nothing qualifies and it returns (0, NaN).
func tailPercentile(xs []float64) (p, v float64) {
	p, v = 0, math.NaN()
	for _, q := range tailLadder {
		if len(xs)-rank(q, len(xs)) < 10 {
			break
		}
		p, v = q, percentile(xs, q)
	}
	return p, v
}
