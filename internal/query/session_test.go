// Differential tests pinning every Session query family and window
// sweep to the quadratic oracle. External test package: internal/oracle
// imports core, and these tests exercise query exactly as a serving
// caller would.
package query_test

import (
	"math/rand"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/oracle"
	"semilocal/internal/query"
)

func newSession(t testing.TB, a, b []byte) *query.Session {
	t.Helper()
	k, err := core.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return query.NewSession(k)
}

// checkSessionAgainstOracle samples ranges of every query family plus a
// few full window sweeps and compares each answer to direct substring
// DP. Sampling (rather than exhausting all O(n²) ranges) keeps the
// quadratic oracle affordable while still covering boundary ranges:
// the empty range, the full range, and single elements are always
// included.
func checkSessionAgainstOracle(t *testing.T, a, b []byte, rng *rand.Rand, samples int) {
	t.Helper()
	s := newSession(t, a, b)
	m, n := len(a), len(b)

	if got, want := s.Score(), oracle.Score(a, b); got != want {
		t.Fatalf("Score = %d, oracle %d", got, want)
	}

	span := func(limit int) (int, int) {
		lo := rng.Intn(limit + 1)
		hi := lo + rng.Intn(limit-lo+1)
		return lo, hi
	}
	type rangeCase struct{ x, y int }
	fixedN := []rangeCase{{0, 0}, {0, n}, {n, n}}
	fixedM := []rangeCase{{0, 0}, {0, m}, {m, m}}

	for i := 0; i < samples; i++ {
		var l, r, u, v int
		switch {
		case i < len(fixedN):
			l, r = fixedN[i].x, fixedN[i].y
			u, v = fixedM[i].x, fixedM[i].y
		default:
			l, r = span(n)
			u, v = span(m)
		}
		if got, want := s.StringSubstring(l, r), oracle.StringSubstring(a, b, l, r); got != want {
			t.Fatalf("StringSubstring(%d,%d) = %d, oracle %d", l, r, got, want)
		}
		if got, want := s.SubstringString(u, v), oracle.SubstringString(a, b, u, v); got != want {
			t.Fatalf("SubstringString(%d,%d) = %d, oracle %d", u, v, got, want)
		}
		j := rng.Intn(n + 1)
		if got, want := s.SuffixPrefix(u, j), oracle.SuffixPrefix(a, b, u, j); got != want {
			t.Fatalf("SuffixPrefix(%d,%d) = %d, oracle %d", u, j, got, want)
		}
		if got, want := s.PrefixSuffix(u, j), oracle.PrefixSuffix(a, b, u, j); got != want {
			t.Fatalf("PrefixSuffix(%d,%d) = %d, oracle %d", u, j, got, want)
		}
	}

	widths := []int{0, n}
	for i := 0; i < 4 && n > 0; i++ {
		widths = append(widths, rng.Intn(n+1))
	}
	for _, w := range widths {
		got := s.WindowScores(w)
		if len(got) != n-w+1 {
			t.Fatalf("WindowScores(%d) has %d entries, want %d", w, len(got), n-w+1)
		}
		bestScore, bestAt := -1, 0
		for l, sc := range got {
			if want := oracle.StringSubstring(a, b, l, l+w); sc != want {
				t.Fatalf("WindowScores(%d)[%d] = %d, oracle %d", w, l, sc, want)
			}
			if sc > bestScore {
				bestScore, bestAt = sc, l
			}
		}
		if l, sc := s.BestWindow(w); l != bestAt || sc != bestScore {
			t.Fatalf("BestWindow(%d) = (%d,%d), sweep says (%d,%d)", w, l, sc, bestAt, bestScore)
		}
	}
}

func TestSessionDifferentialAdversarial(t *testing.T) {
	for _, pair := range oracle.AdversarialPairs() {
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(pair.A))<<16 + int64(len(pair.B))))
			checkSessionAgainstOracle(t, pair.A, pair.B, rng, 40)
		})
	}
}

func TestSessionDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e55))
	for _, sigma := range []int{1, 2, 4, 26, 256} {
		a, b := oracle.RandomPair(rng, 64, sigma)
		checkSessionAgainstOracle(t, a, b, rng, 40)
	}
}

// TestSessionMatchesKernel pins that a Session is the kernel itself:
// NewSession returns the kernel it was given, prepared, so no wrapper
// can drift from the kernel's answers.
func TestSessionMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e56))
	a, b := oracle.RandomPair(rng, 80, 3)
	k, err := core.Solve(a, b, core.Config{Algorithm: core.GridReduction, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k.Prepared() {
		t.Fatal("a fresh solve is already prepared")
	}
	if s := query.NewSession(k); s != k || !k.Prepared() {
		t.Fatal("NewSession must return the kernel it was given, prepared")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	kinds := []query.Kind{
		query.Score, query.StringSubstring, query.SubstringString,
		query.SuffixPrefix, query.PrefixSuffix, query.Windows, query.BestWindow,
	}
	for _, k := range kinds {
		back, err := query.ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), back, err)
		}
	}
	if _, err := query.ParseKind("frobnicate"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
	if got := query.Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind renders as %q", got)
	}
}
