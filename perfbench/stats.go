package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile. With 20 or fewer samples no
// percentile above the median qualifies, so the maximum is returned
// with percentile 100: the sample count printed next to it says how
// much weight it carries.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles returns the first and third quartiles by the same method as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here match the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles: k = j(n+1) div 4 clamped to 1..n-1, then
		// interpolated (or extrapolated, after clamping) by the remainder.
		m := n + 1
		k := max(1, min(j*m/4, n-1))
		delta := float64(j*m - k*4)
		return (s[k-1]*(4-delta) + s[k]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
