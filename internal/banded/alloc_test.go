//go:build !race

package banded

// Zero-alloc guards for the banded hot loop. Once the pooled workspace
// has grown to size, DistanceBounded and LCSScoreBounded must not touch
// the heap: the fast path exists to serve high-QPS near-identical
// traffic, where a per-call allocation is a per-call GC tax. Like every
// AllocsPerRun-based gate, this only measures without the race
// detector.

import (
	"testing"

	"semilocal/internal/benchkit"
)

func TestDistanceZeroAllocs(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog, repeatedly and at length")
	b := []byte("the quick brown fax jumps over the lazy dog, repeatedly and at length!")
	a = append(a, a...)
	b = append(b, b...)
	full := len(a) + len(b)     // a budget no pair exceeds
	DistanceBounded(a, b, full) // warm the pool to steady-state capacity
	benchkit.AssertMaxAllocs(t, "banded.DistanceBounded(full)", 0, 200, func() {
		DistanceBounded(a, b, full)
	})
	DistanceBounded(a, b, 16)
	benchkit.AssertMaxAllocs(t, "banded.DistanceBounded", 0, 200, func() {
		DistanceBounded(a, b, 16)
	})
	LCSScoreBounded(a, b, full)
	benchkit.AssertMaxAllocs(t, "banded.LCSScoreBounded(full)", 0, 200, func() {
		LCSScoreBounded(a, b, full)
	})
}

// TestProbeZeroAllocs pins the dispatcher's routing probe: it runs on
// every banded-eligible request, so it must be allocation-free too.
func TestProbeZeroAllocs(t *testing.T) {
	a := make([]byte, 8192)
	b := make([]byte, 8192)
	for i := range a {
		a[i] = byte('A' + i%23)
		b[i] = a[i]
	}
	b[4096] = 'z'
	benchkit.AssertMaxAllocs(t, "banded.ProbeBand", 0, 200, func() {
		ProbeBand(a, b, 64)
	})
}
