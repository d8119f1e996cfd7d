package main

import (
	"math"
	"testing"
)

func TestNearestRankPercentile(t *testing.T) {
	var s sample
	for _, v := range []float64{50, 10, 40, 20, 30} {
		s.add(v)
	}
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50},
	} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v of 10..50 = %v, want %v", c.p, got, c.want)
		}
	}
	var empty sample
	if got := empty.percentile(50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// Adding after a read must re-sort.
	s.add(5)
	if got := s.percentile(1); got != 5 {
		t.Errorf("p1 after adding 5 = %v, want 5", got)
	}
	if got, want := s.mean(), 155.0/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got := s.max(); got != 50 {
		t.Errorf("max = %v, want 50", got)
	}
}

// The tail rule: a percentile is reported only with at least ten
// samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {200, 95}, {213, 100 * (1 - 10.0/213)}, {1000, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 95, true}, {199, 95, false}, {1000, 99, true}, {999, 99, false}, {20, 50, true}, {80, 95, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// the quartiles the acceptance check uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64 // (q3-q1)/median, from Python
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{16, 1, 8, 2, 4}, (12 - 1.5) / 4},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{2, 4}, (4.5 - 1.5) / 3}, // two values extrapolate, as Python does
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}
