package main

import (
	"math"
	"testing"
)

// The -validate distance: equal values (same-sign infinities included)
// agree, and a NaN or a mismatched infinity is maximal disagreement,
// in both the scalar and the per-vertex vector shape.
func TestMaxAbsDiff(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		a, b []float64
		want float64
	}{
		{"equal", []float64{1, 2.5}, []float64{1, 2.5}, 0},
		{"finite gap", []float64{1, 2}, []float64{1.5, 2}, 0.5},
		{"both +Inf", []float64{inf, 1}, []float64{inf, 1}, 0},
		{"both -Inf", []float64{-inf}, []float64{-inf}, 0},
		{"+Inf vs -Inf", []float64{inf}, []float64{-inf}, inf},
		{"+Inf vs finite", []float64{inf}, []float64{3}, inf},
		{"NaN vs finite", []float64{nan, 1}, []float64{1, 1}, inf},
		{"finite vs NaN", []float64{1}, []float64{nan}, inf},
		{"NaN vs NaN", []float64{nan}, []float64{nan}, inf},
		{"NaN vs +Inf", []float64{nan}, []float64{inf}, inf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := maxAbsDiffScalar(tc.a, tc.b); got != tc.want {
				t.Errorf("scalar: got %v, want %v", got, tc.want)
			}
			// The same values as one feature row among agreeing rows.
			a := [][]float64{{0, 0}, tc.a, {7}}
			b := [][]float64{{0, 0}, tc.b, {7}}
			if got := maxAbsDiffVector(a, b); got != tc.want {
				t.Errorf("vector: got %v, want %v", got, tc.want)
			}
		})
	}
}
