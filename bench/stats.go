package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity (latencies in ms,
// mostly). Values are kept unsorted until a statistic is asked for.
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sample) n() int { return len(s.vals) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// percentile is the nearest-rank percentile: the smallest value with at
// least p percent of the sample at or below it. An empty sample reads 0.
func (s *sample) percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return nearestRank(s.vals, p)
}

func (s *sample) mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

func (s *sample) max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// nearestRank indexes an ascending slice at rank ceil(p/100·n).
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// minTailSamples is how many samples must lie beyond a percentile
// before it is reported as a tail statistic.
const minTailSamples = 10

// supportedPercentile is the highest percentile of an n-sample set
// that still has minTailSamples samples beyond it; 0 when even the
// median does not.
func supportedPercentile(n int) float64 {
	if n < 2*minTailSamples {
		return 0
	}
	return 100 * (1 - float64(minTailSamples)/float64(n))
}

// supports reports whether an n-sample set supports percentile p under
// the minTailSamples rule.
func supports(n int, p float64) bool {
	return float64(n)*(1-p/100) >= minTailSamples
}

// medianOf is the median of a small set of repeated measurements (mean
// of the two middle values for an even count), as
// statistics.median does.
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartileSpread is (Q3−Q1)/median with the quartiles of Python's
// statistics.quantiles(vals, n=4) (the exclusive method), the spread
// the acceptance check computes. Fewer than two values read 0.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	med := medianOf(vals)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Rank k·(n+1)/4, 1-based, interpolating between neighbours;
		// like Python, ranks outside [1, n-1] extrapolate from the
		// nearest pair.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
