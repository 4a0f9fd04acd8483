package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianOddEvenEmpty(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9}, 5},
	} {
		if got := summarize(c.xs).Median; got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(data, n=4),
// which the acceptance spread is computed with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{nil, 0, 0},
		{[]float64{4}, 4, 4},
		{[]float64{1, 2}, 0.75, 2.25},
		{seq(5), 1.5, 4.5},
		{seq(10), 2.75, 8.25},
		{seq(11), 3, 9},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, s.Q1, s.Q3, c.q1, c.q3)
		}
		if s.N != len(c.xs) {
			t.Errorf("summary of %d samples counts %d", len(c.xs), s.N)
		}
	}
}

func TestPercentileRankIsExact(t *testing.T) {
	// 0.99·100 is 99.00000000000001 in floating point; the rank must
	// still be 99, not 100.
	if v, beyond := percentile(seq(100), 9900); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v with %d beyond, want 99 with 1", v, beyond)
	}
	if v, beyond := percentile(seq(1000), 9900); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(nil, 5000); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		bp    int
		value float64
		ok    bool
	}{
		{0, 0, 0, false},
		{10, 0, 0, false},       // the median has only 5 beyond it
		{20, 5000, 10, true},    // exactly 10 beyond the median
		{999, 9500, 950, true},  // p99 would have only 9 beyond
		{1000, 9900, 990, true}, // p99 has exactly 10 beyond
		{10000, 9990, 9990, true},
	} {
		bp, v, ok := tail(seq(c.n))
		if bp != c.bp || v != c.value || ok != c.ok {
			t.Errorf("tail of %d samples = p%d %v ok=%v; want p%d %v ok=%v", c.n, bp, v, ok, c.bp, c.value, c.ok)
		}
		if ok {
			if _, beyond := percentile(seq(c.n), bp); beyond < minBeyond {
				t.Errorf("tail of %d samples picked p%d with %d beyond", c.n, bp, beyond)
			}
		}
	}
}
