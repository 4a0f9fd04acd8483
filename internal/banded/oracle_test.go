package banded_test

// The differential test wall for the banded fast path: every answer the
// package can produce is cross-checked against two independent
// implementations — internal/oracle's quadratic DP (EditDistance and
// the wildcard-capable Score) and internal/editdist's linear-space DP —
// over the repository's adversarial input families plus 500+ randomized
// cases per suite and per run. The bounded variants additionally pin
// the early-exit contract at the exact budget boundary. This file is an
// external test package by necessity: editdist (and through it oracle)
// now imports internal/banded for DistanceAuto, so the wall runs
// against the exported API only — the LCP and frontier tests that need
// internals live in the internal test files.

import (
	"bytes"
	"math/rand"
	"testing"

	"semilocal/internal/banded"
	"semilocal/internal/editdist"
	"semilocal/internal/oracle"
)

// bandedShapes extends oracle.AdversarialPairs with the shapes that
// specifically stress a diagonal BFS: band blow-up (k ≈ min(m,n)),
// long shared affixes around a divergent core, periodic strings whose
// LCP structure is maximally repetitive, and DNA/binary alphabets.
func bandedShapes() []oracle.Pair {
	rng := rand.New(rand.NewSource(0xbade))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	base := dna(300)
	oneSub := append([]byte(nil), base...)
	oneSub[150] = 'X'
	oneDel := append(append([]byte(nil), base[:77]...), base[78:]...)
	oneIns := append(append([]byte(nil), base[:200]...), append([]byte{'X'}, base[200:]...)...)
	shifted := append([]byte("XYZ"), base...)
	pairs := []oracle.Pair{
		{Name: "equal/long", A: base, B: append([]byte(nil), base...)},
		{Name: "single-sub", A: base, B: oneSub},
		{Name: "single-del", A: base, B: oneDel},
		{Name: "single-ins", A: base, B: oneIns},
		{Name: "prefix-shift", A: base, B: shifted},
		{Name: "blowup/disjoint-alphabets", A: bytes.Repeat([]byte("ab"), 60), B: bytes.Repeat([]byte("cd"), 60)},
		{Name: "blowup/reverse", A: dna(120), B: nil}, // B filled below
		{Name: "periodic/ab-vs-ba", A: bytes.Repeat([]byte("ab"), 80), B: bytes.Repeat([]byte("ba"), 80)},
		{Name: "periodic/off-by-one-period", A: bytes.Repeat([]byte("abc"), 50), B: bytes.Repeat([]byte("abcc"), 37)},
		{Name: "binary/dense", A: randSigma(rng, 200, 2), B: randSigma(rng, 190, 2)},
		{Name: "unary/vs-binary", A: bytes.Repeat([]byte("a"), 100), B: randSigma(rng, 100, 2)},
		{Name: "affix/long-shared", A: affix(base, dna(20)), B: affix(base, dna(25))},
	}
	rev := make([]byte, len(pairs[6].A))
	for i, c := range pairs[6].A {
		rev[len(rev)-1-i] = c
	}
	pairs[6].B = rev
	return append(oracle.AdversarialPairs(), pairs...)
}

// affix wraps core with base as both prefix and suffix.
func affix(base, core []byte) []byte {
	out := append([]byte(nil), base...)
	out = append(out, core...)
	return append(out, base...)
}

func randSigma(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte('a' + rng.Intn(sigma))
	}
	return s
}

// checkPair runs every banded entry point against both oracles on one
// pair, including the budget boundary of the bounded variants.
func checkPair(t *testing.T, name string, a, b []byte) {
	t.Helper()
	wantED := oracle.EditDistance(a, b)
	if dp := editdist.Distance(a, b); dp != wantED {
		t.Fatalf("%s: oracles disagree: oracle.EditDistance=%d editdist.Distance=%d", name, wantED, dp)
	}
	full := len(a) + len(b) // a budget no pair exceeds
	if got, ok := banded.DistanceBounded(a, b, full); !ok || got != wantED {
		t.Errorf("%s: DistanceBounded(full) = (%d, %v), want %d", name, got, ok, wantED)
	}
	wantLCS := oracle.Score(a, b)
	if got, ok := banded.LCSScoreBounded(a, b, full); !ok || got != wantLCS {
		t.Errorf("%s: LCSScoreBounded(full) = (%d, %v), want %d", name, got, ok, wantLCS)
	}
	// The budget boundary: exact at maxK = d, early exit at maxK = d−1.
	if got, ok := banded.DistanceBounded(a, b, wantED); !ok || got != wantED {
		t.Errorf("%s: DistanceBounded(maxK=d) = (%d, %v), want (%d, true)", name, got, ok, wantED)
	}
	if wantED > 0 {
		if got, ok := banded.DistanceBounded(a, b, wantED-1); ok {
			t.Errorf("%s: DistanceBounded(maxK=d-1) = (%d, true), want early exit", name, got)
		}
	}
	wantD := len(a) + len(b) - 2*wantLCS
	if got, ok := banded.LCSScoreBounded(a, b, wantD); !ok || got != wantLCS {
		t.Errorf("%s: LCSScoreBounded(maxD=D) = (%d, %v), want (%d, true)", name, got, ok, wantLCS)
	}
	if wantD > 0 {
		if got, ok := banded.LCSScoreBounded(a, b, wantD-1); ok {
			t.Errorf("%s: LCSScoreBounded(maxD=D-1) = (%d, true), want early exit", name, got)
		}
	}
}

func TestOracleAdversarialShapes(t *testing.T) {
	for _, p := range bandedShapes() {
		p := p
		t.Run(p.Name, func(t *testing.T) { checkPair(t, p.Name, p.A, p.B) })
	}
}

// TestOracleRandomized is the randomized wall: 500+ pairs per run
// across alphabet sizes (binary, DNA, bytes) and length regimes,
// including the k ≈ min(m,n) blow-up region that random independent
// pairs naturally occupy.
func TestOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0401))
	cases := 0
	for _, sigma := range []int{2, 4, 26} {
		for _, maxLen := range []int{8, 40, 120} {
			for it := 0; it < 60; it++ {
				a, b := oracle.RandomPair(rng, maxLen, sigma)
				checkPair(t, "random", a, b)
				cases++
			}
		}
	}
	if cases < 500 {
		t.Fatalf("randomized wall ran %d cases, want ≥ 500", cases)
	}
}

// TestOracleRandomizedSimilar drives the regime the fast path exists
// for — near-identical pairs with a planted edit count — and checks
// distances land exactly on the planted bound's DP value.
func TestOracleRandomizedSimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0402))
	for it := 0; it < 200; it++ {
		n := 50 + rng.Intn(400)
		a := randSigma(rng, n, 4)
		b := mutate(rng, a, rng.Intn(8))
		checkPair(t, "similar", a, b)
	}
}

// mutate applies k random single-character edits (substitution,
// insertion, or deletion) to a copy of a.
func mutate(rng *rand.Rand, a []byte, k int) []byte {
	b := append([]byte(nil), a...)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0: // substitute
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(4))
		case op == 1: // insert
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{byte('a' + rng.Intn(4))}, b[p:]...)...)
		case op == 2 && len(b) > 0: // delete
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		}
	}
	return b
}
