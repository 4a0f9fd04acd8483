package lcs

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randString(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(sigma))
	}
	return s
}

func TestScoreFullKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 0},
		{"", "b", 0},
		{"a", "a", 1},
		{"a", "b", 0},
		{"abcde", "abcde", 5},
		{"abcde", "edcba", 1},
		{"AGCAT", "GAC", 2},
		{"XMJYAUZ", "MZJAWXU", 4},
		{"banana", "atana", 4},
		{"aaaa", "aa", 2},
	}
	for _, c := range cases {
		if got := ScoreFull([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("ScoreFull(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// All scorer variants must agree with the full-table oracle.
func TestScorersAgree(t *testing.T) {
	scorers := map[string]func(a, b []byte) int{
		"PrefixRowMajor":           PrefixRowMajor,
		"PrefixAntidiag":           PrefixAntidiag,
		"PrefixAntidiagBranchless": PrefixAntidiagBranchless,
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		m, n := rng.Intn(60), rng.Intn(60)
		sigma := 1 + rng.Intn(5)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		want := ScoreFull(a, b)
		for name, f := range scorers {
			if got := f(a, b); got != want {
				t.Fatalf("%s(%v,%v) = %d, want %d", name, a, b, got, want)
			}
		}
	}
}

func TestScorersAgreeLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randString(rng, 3000, 4), randString(rng, 2500, 4)
	want := PrefixRowMajor(a, b)
	if got := PrefixAntidiag(a, b); got != want {
		t.Fatalf("antidiag = %d, want %d", got, want)
	}
	if got := PrefixAntidiagBranchless(a, b); got != want {
		t.Fatalf("branchless = %d, want %d", got, want)
	}
}

func TestLCSSymmetryProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 80 {
			a = a[:80]
		}
		if len(b) > 80 {
			b = b[:80]
		}
		return PrefixRowMajor(a, b) == PrefixRowMajor(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLCSBoundsProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 80 {
			a = a[:80]
		}
		if len(b) > 80 {
			b = b[:80]
		}
		s := PrefixRowMajor(a, b)
		if s < 0 || s > len(a) || s > len(b) {
			return false
		}
		// Appending a character never decreases the score.
		return PrefixRowMajor(append(append([]byte{}, a...), 'x'), b) >= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxBranchless(t *testing.T) {
	cases := [][3]int32{{0, 0, 0}, {1, 0, 1}, {0, 1, 1}, {-5, 3, 3}, {7, 7, 7}, {1000000, -1000000, 1000000}}
	for _, c := range cases {
		if got := maxBranchless(c[0], c[1]); got != c[2] {
			t.Errorf("maxBranchless(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestDiagCells(t *testing.T) {
	m, n := 3, 5
	total := 0
	for d := 0; d < m+n-1; d++ {
		lo, hi := diagCells(d, m, n)
		for i := lo; i <= hi; i++ {
			j := d - i
			if i < 0 || i >= m || j < 0 || j >= n {
				t.Fatalf("diag %d yields out-of-grid cell (%d,%d)", d, i, j)
			}
			total++
		}
	}
	if total != m*n {
		t.Fatalf("diagonals cover %d cells, want %d", total, m*n)
	}
}

func TestIdenticalLongStrings(t *testing.T) {
	s := []byte(strings.Repeat("abcd", 500))
	if got := PrefixAntidiagBranchless(s, s); got != len(s) {
		t.Fatalf("LCS(s,s) = %d, want %d", got, len(s))
	}
}
