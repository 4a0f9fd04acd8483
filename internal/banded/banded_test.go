package banded

// Internal unit tests: everything here needs package internals (the
// LCP helpers, trimCommon, isqrt, the workspace) or deliberately avoids the
// repository oracles. internal/oracle and internal/editdist both sit
// downstream of this package now (editdist.DistanceAuto routes through
// the banded BFS), so the internal test files use small local quadratic
// references instead — the full differential wall against the real
// oracles lives in the external test package (oracle_test.go,
// differential_test.go, fuzz_test.go).

import (
	"math/rand"
	"testing"
)

// dpEdit is a local quadratic Levenshtein reference, independent of
// both the package under test and the repository oracles.
func dpEdit(a, b []byte) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			best := prev[j-1]
			if a[i-1] != b[j-1] {
				best++
			}
			if prev[j]+1 < best {
				best = prev[j] + 1
			}
			if cur[j-1]+1 < best {
				best = cur[j-1] + 1
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// dpLCS is the matching local LCS reference.
func dpLCS(a, b []byte) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// randPair draws two independent strings of random length ≤ maxLen over
// a sigma-letter alphabet.
func randPair(rng *rand.Rand, maxLen, sigma int) (a, b []byte) {
	return randBytes(rng, rng.Intn(maxLen+1), sigma), randBytes(rng, rng.Intn(maxLen+1), sigma)
}

func randBytes(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte('a' + rng.Intn(sigma))
	}
	return s
}

func TestDistanceSmall(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"sunday", "saturday", 3},
		{"abc", "abd", 1},
		{"abc", "abcd", 1},
		{"abcd", "abc", 1},
		{"a", "b", 1},
		{"GATTACA", "GCATGCU", 4},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got, ok := DistanceBounded([]byte(c.a), []byte(c.b), len(c.a)+len(c.b)); !ok || got != c.want {
			t.Errorf("DistanceBounded(%q, %q, full) = (%d, %v), want %d", c.a, c.b, got, ok, c.want)
		}
	}
}

func TestLCSScoreSmall(t *testing.T) {
	cases := []string{
		"|", "|abc", "abc|", "abc|abc", "ABCABBA|CBABAC",
		"kitten|sitting", "GATTACA|TACGATTACA", "aaaa|aa", "abab|baba",
	}
	for _, c := range cases {
		var a, b []byte
		for i := range c {
			if c[i] == '|' {
				a, b = []byte(c[:i]), []byte(c[i+1:])
				break
			}
		}
		want := dpLCS(a, b)
		if got, ok := LCSScoreBounded(a, b, len(a)+len(b)); !ok || got != want {
			t.Errorf("LCSScoreBounded(%q, %q, full) = (%d, %v), want %d", a, b, got, ok, want)
		}
	}
}

// TestBoundedContract pins the DistanceBounded early-exit contract on
// random pairs: (d, true) with d ≤ maxK exactly when the true distance
// fits the budget, (0, false) otherwise — never a wrong distance, never
// a false negative.
func TestBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 300; it++ {
		a, b := randPair(rng, 60, 4)
		want := dpEdit(a, b)
		for _, maxK := range []int{0, 1, want - 1, want, want + 1, 200} {
			if maxK < 0 {
				continue
			}
			got, ok := DistanceBounded(a, b, maxK)
			if want <= maxK {
				if !ok || got != want {
					t.Fatalf("DistanceBounded(%q, %q, %d) = (%d, %v), want (%d, true)", a, b, maxK, got, ok, want)
				}
			} else if ok {
				t.Fatalf("DistanceBounded(%q, %q, %d) = (%d, true), want early exit (true distance %d)", a, b, maxK, got, want)
			}
		}
	}
}

// TestLCSBoundedContract is the same contract for the indel-distance
// budget of LCSScoreBounded.
func TestLCSBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for it := 0; it < 300; it++ {
		a, b := randPair(rng, 60, 4)
		wantScore := dpLCS(a, b)
		wantD := len(a) + len(b) - 2*wantScore
		for _, maxD := range []int{0, 1, wantD - 1, wantD, wantD + 1, 400} {
			if maxD < 0 {
				continue
			}
			got, ok := LCSScoreBounded(a, b, maxD)
			if wantD <= maxD {
				if !ok || got != wantScore {
					t.Fatalf("LCSScoreBounded(%q, %q, %d) = (%d, %v), want (%d, true)", a, b, maxD, got, ok, wantScore)
				}
			} else if ok {
				t.Fatalf("LCSScoreBounded(%q, %q, %d) = (%d, true), want early exit (indel distance %d)", a, b, maxD, got, wantD)
			}
		}
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	if _, ok := DistanceBounded([]byte("a"), []byte("a"), -1); ok {
		t.Error("DistanceBounded with maxK < 0 reported ok")
	}
	if _, ok := LCSScoreBounded([]byte("a"), []byte("a"), -1); ok {
		t.Error("LCSScoreBounded with maxD < 0 reported ok")
	}
}

func TestTrimCommon(t *testing.T) {
	cases := []struct {
		a, b, wantA, wantB string
		pre, suf           int
	}{
		{"", "", "", "", 0, 0},
		{"abc", "abc", "", "", 3, 0},
		{"abcX", "abcY", "X", "Y", 3, 0},
		{"Xabc", "Yabc", "X", "Y", 0, 3},
		{"preMIDpost", "preXYZpost", "MID", "XYZ", 3, 4},
		{"aaaa", "aa", "aa", "", 2, 0},
		{"ab", "ba", "ab", "ba", 0, 0},
		// Affixes longer than one 8-byte word, on both sides.
		{"0123456789abcdefgMID0123456789abcdefg", "0123456789abcdefgXY0123456789abcdefg", "MID", "XY", 17, 17},
		{"0123456789abcdefg", "0123456789abcdef", "g", "", 16, 0},
	}
	for _, c := range cases {
		ta, tb, pre, suf := trimCommon([]byte(c.a), []byte(c.b))
		if string(ta) != c.wantA || string(tb) != c.wantB || pre != c.pre || suf != c.suf {
			t.Errorf("trimCommon(%q, %q) = (%q, %q, %d, %d), want (%q, %q, %d, %d)",
				c.a, c.b, ta, tb, pre, suf, c.wantA, c.wantB, c.pre, c.suf)
		}
	}
}

func TestAutoMaxK(t *testing.T) {
	if k := AutoMaxK(0, 0); k != 64 {
		t.Errorf("AutoMaxK(0, 0) = %d, want floor 64", k)
	}
	if k := AutoMaxK(1<<20, 1<<20); k != (1<<20)/8 {
		t.Errorf("AutoMaxK(2^20, 2^20) = %d, want %d", k, (1<<20)/8)
	}
	if isqrt(10) != 3 || isqrt(16) != 4 || isqrt(1) != 1 {
		t.Error("isqrt spot checks failed")
	}
}

// TestProbeRouting pins the dispatcher-facing behavior of the probe:
// near-identical pairs (including ones with indel drift) stay routable,
// unrelated pairs of equal length do not.
func TestProbeRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := randBytes(rng, 20000, 26)
	// A handful of scattered edits, including an early insertion that
	// shifts every downstream offset.
	edited := append([]byte{'X'}, base...)
	edited[5000] = 'Y'
	edited = append(edited[:12000], edited[12001:]...)
	p := ProbeBand(base, edited, 256)
	if !p.Routable(256) {
		t.Errorf("near-identical pair not routable: %+v", p)
	}
	other := randBytes(rng, 20000, 26)
	p = ProbeBand(base, other, 256)
	if p.Routable(256) {
		t.Errorf("unrelated pair reported routable: %+v", p)
	}
	// Length divergence past the band is never routable, regardless of
	// content.
	p = ProbeBand(base, base[:1000], 256)
	if p.Routable(256) {
		t.Errorf("length-divergent pair reported routable: %+v", p)
	}
}
