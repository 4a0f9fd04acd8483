package banded_test

// The editdist leg of the differential wall. internal/editdist imports
// this package (DistanceAuto routes through the banded BFS), so the
// cross-check against its linear-space DP has to live in the external
// test package: banded_test → editdist → banded is a legal chain,
// banded → editdist is not. Together with oracle_test.go this gives the
// wall its two independent reference implementations.

import (
	"math/rand"
	"testing"

	"semilocal/internal/banded"
	"semilocal/internal/editdist"
	"semilocal/internal/oracle"
)

// checkAgainstEditdist cross-checks the banded entry points against
// editdist's DP, including the budget boundary of DistanceBounded.
func checkAgainstEditdist(t *testing.T, name string, a, b []byte) {
	t.Helper()
	want := editdist.Distance(a, b)
	full := len(a) + len(b) // a budget no pair exceeds
	if got, ok := banded.DistanceBounded(a, b, full); !ok || got != want {
		t.Errorf("%s: banded.DistanceBounded(full) = (%d, %v), editdist.Distance = %d", name, got, ok, want)
	}
	if got, ok := banded.DistanceBounded(a, b, want); !ok || got != want {
		t.Errorf("%s: DistanceBounded(maxK=d) = (%d, %v), want (%d, true)", name, got, ok, want)
	}
	if want > 0 {
		if got, ok := banded.DistanceBounded(a, b, want-1); ok {
			t.Errorf("%s: DistanceBounded(maxK=d-1) = (%d, true), want early exit", name, got)
		}
	}
	// The LCS/edit duality on the same pair: unit-cost distance never
	// exceeds indel distance, and both sides are internally consistent.
	lcs, ok := banded.LCSScoreBounded(a, b, full)
	if !ok {
		t.Errorf("%s: LCSScoreBounded(full) ran out of budget", name)
	}
	if indel := len(a) + len(b) - 2*lcs; want > indel {
		t.Errorf("%s: edit distance %d exceeds indel distance %d", name, want, indel)
	}
}

func TestDifferentialEditdistAdversarial(t *testing.T) {
	for _, p := range oracle.AdversarialPairs() {
		p := p
		t.Run(p.Name, func(t *testing.T) { checkAgainstEditdist(t, p.Name, p.A, p.B) })
	}
}

// TestDifferentialEditdistRandomized runs 500+ random pairs per run
// against the linear-space DP, mirroring the internal oracle wall.
func TestDifferentialEditdistRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0403))
	cases := 0
	for _, sigma := range []int{2, 4, 26} {
		for _, maxLen := range []int{8, 40, 120} {
			for it := 0; it < 60; it++ {
				a, b := oracle.RandomPair(rng, maxLen, sigma)
				checkAgainstEditdist(t, "random", a, b)
				cases++
			}
		}
	}
	if cases < 500 {
		t.Fatalf("randomized editdist wall ran %d cases, want ≥ 500", cases)
	}
}

// TestDistanceAutoMatchesDP pins the shape-dispatching entry point that
// semilocal.EditDistance serves through: same answer as the quadratic
// DP on both the banded-friendly regime (planted edits) and the blow-up
// regime (independent random pairs) that forces its DP fallback.
func TestDistanceAutoMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0404))
	for it := 0; it < 200; it++ {
		a, b := oracle.RandomPair(rng, 200, 3)
		if got, want := editdist.DistanceAuto(a, b), editdist.Distance(a, b); got != want {
			t.Fatalf("DistanceAuto(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
	for it := 0; it < 100; it++ {
		n := 100 + rng.Intn(400)
		a := make([]byte, n)
		for i := range a {
			a[i] = byte('a' + rng.Intn(4))
		}
		b := append([]byte(nil), a...)
		for e := 0; e < rng.Intn(6); e++ {
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(4))
		}
		if got, want := editdist.DistanceAuto(a, b), editdist.Distance(a, b); got != want {
			t.Fatalf("DistanceAuto planted-edit case = %d, want %d", got, want)
		}
	}
}
