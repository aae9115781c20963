package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks (Hyndman–Fan type 7, the
// numpy default). xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile of
// xs with the method of Python's statistics.quantiles(xs, n=4)
// (method "exclusive"), so the spreads printed here match the ones
// computed from the same values in Python. It needs two values; with
// one, all three quartiles are that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
