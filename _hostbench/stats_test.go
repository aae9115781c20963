package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{10, 1, 4, 3, 2}, 0.5, 3},
		{[]float64{10, 1, 4, 3, 2}, 0.9, 7.6}, // between 4 and 10
		{[]float64{10, 1, 4, 3, 2}, 0, 1},
		{[]float64{10, 1, 4, 3, 2}, 1, 10},
		{[]float64{3.5, 1.25, 9, 7, 2, 8.5, 6}, 0.9, 8.7},
		{[]float64{42}, 0.9, 42},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7, 2, 8.5, 6}, [3]float64{2, 6, 8.5}},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
