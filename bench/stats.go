package main

import "sort"

// Exact sample statistics. Every figure the benchmark reports is read
// off the sorted raw samples; nothing goes through bucketed histograms,
// whose power-of-two edges cannot resolve a 10 % change.

// summary describes one sample set.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// IQR is the distance between the quartiles.
func (s summary) IQR() float64 { return s.Q3 - s.Q1 }

// summarize sorts a copy of xs and describes it; the zero summary for
// no samples.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q1, Q3: q3}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of sorted samples: the middle one, or the mean of the two
// middle ones for an even count; 0 for none.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of sorted samples by
// the exclusive method, the default of Python's
// statistics.quantiles(data, n=4), so spreads computed here and by
// external scripts agree.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank value at bp basis points
// (9900 = p99) and how many samples rank after it. Integer arithmetic
// keeps the rank exact: a float p/100·n can land a hair above an
// integer and round the rank up by one.
func percentile(sorted []float64, bp int) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := (bp*n + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minBeyond is the tail rule: a percentile is reported only when at
// least this many samples lie beyond it, so one slow call cannot be a
// percentile on its own.
const minBeyond = 10

// tailLadder is the percentiles tail considers, highest first, in basis
// points.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// tail returns the highest percentile of tailLadder (in basis points)
// that has at least minBeyond samples beyond it, with its value; ok is
// false when even the median lacks that support.
func tail(sorted []float64) (bp int, value float64, ok bool) {
	for _, bp := range tailLadder {
		if v, beyond := percentile(sorted, bp); beyond >= minBeyond {
			return bp, v, true
		}
	}
	return 0, 0, false
}
