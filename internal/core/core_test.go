package core

import (
	"math/rand"
	"testing"

	"semilocal/internal/lcs"
	"semilocal/internal/perm"
)

func randString(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(sigma))
	}
	return s
}

func mustSolve(t *testing.T, a, b []byte, cfg Config) *Kernel {
	t.Helper()
	k, err := Solve(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		m, n := rng.Intn(80), rng.Intn(80)
		sigma := 1 + rng.Intn(4)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		want := mustSolve(t, a, b, Config{Algorithm: RowMajor})
		for _, alg := range Algorithms() {
			for _, workers := range []int{1, 3} {
				k := mustSolve(t, a, b, Config{Algorithm: alg, Workers: workers})
				if !k.Permutation().Equal(want.Permutation()) {
					t.Fatalf("%v (workers=%d) kernel differs on m=%d n=%d", alg, workers, m, n)
				}
			}
		}
	}
}

func TestSolveRejectsUnknown(t *testing.T) {
	if _, err := Solve(nil, nil, Config{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestScoreMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 40; trial++ {
		a := randString(rng, rng.Intn(120), 4)
		b := randString(rng, rng.Intn(120), 4)
		k := mustSolve(t, a, b, Config{Algorithm: AntidiagBranchless})
		if got, want := k.Score(), lcs.ScoreFull(a, b); got != want {
			t.Fatalf("Score = %d, want %d", got, want)
		}
	}
}

// TestScoreIsStringSubstring pins the score NewKernel counts once
// against StringSubstring(0, n), that is H(m, n), on solved kernels,
// on arbitrary permutations (Score is a property of the kernel, not of
// the strings) and on the empty edge shapes, each also after a
// marshal round trip.
func TestScoreIsStringSubstring(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	kernels := []*Kernel{
		mustSolve(t, nil, nil, Config{}),
		mustSolve(t, nil, []byte("abc"), Config{}),
		mustSolve(t, []byte("abc"), nil, Config{}),
		NewKernel(perm.Identity(0), 0, 0),
		NewKernel(perm.Random(5, rng), 0, 5),
		NewKernel(perm.Random(5, rng), 5, 0),
	}
	for trial := 0; trial < 40; trial++ {
		m, n := rng.Intn(60), rng.Intn(60)
		a, b := randString(rng, m, 1+rng.Intn(4)), randString(rng, n, 1+rng.Intn(4))
		kernels = append(kernels, mustSolve(t, a, b, Config{Algorithm: AntidiagBranchless}),
			NewKernel(perm.Random(m+n, rng), m, n))
	}
	for _, k := range kernels {
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalKernel(data)
		if err != nil {
			t.Fatal(err)
		}
		want := k.StringSubstring(0, k.N())
		if k.Score() != want || back.Score() != want {
			t.Fatalf("m=%d n=%d: Score = %d, after round trip %d, want StringSubstring(0, n) = %d",
				k.M(), k.N(), k.Score(), back.Score(), want)
		}
	}
}

// TestQuadrantQueries validates every quadrant accessor against direct
// DP on the corresponding substrings.
func TestQuadrantQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 12; trial++ {
		m, n := 1+rng.Intn(18), 1+rng.Intn(18)
		sigma := 1 + rng.Intn(3)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		k := mustSolve(t, a, b, Config{Algorithm: RowMajor})

		for l := 0; l <= n; l++ {
			for r := l; r <= n; r++ {
				if got, want := k.StringSubstring(l, r), lcs.ScoreFull(a, b[l:r]); got != want {
					t.Fatalf("StringSubstring(%d,%d) = %d, want %d (a=%v b=%v)", l, r, got, want, a, b)
				}
			}
		}
		for u := 0; u <= m; u++ {
			for v := u; v <= m; v++ {
				if got, want := k.SubstringString(u, v), lcs.ScoreFull(a[u:v], b); got != want {
					t.Fatalf("SubstringString(%d,%d) = %d, want %d (a=%v b=%v)", u, v, got, want, a, b)
				}
			}
		}
		for u := 0; u <= m; u++ {
			for j := 0; j <= n; j++ {
				if got, want := k.SuffixPrefix(u, j), lcs.ScoreFull(a[u:], b[:j]); got != want {
					t.Fatalf("SuffixPrefix(%d,%d) = %d, want %d (a=%v b=%v)", u, j, got, want, a, b)
				}
				if got, want := k.PrefixSuffix(u, j), lcs.ScoreFull(a[:u], b[j:]); got != want {
					t.Fatalf("PrefixSuffix(%d,%d) = %d, want %d (a=%v b=%v)", u, j, got, want, a, b)
				}
			}
		}
	}
}

func TestWindowScores(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(60)
		a, b := randString(rng, m, 3), randString(rng, n, 3)
		k := mustSolve(t, a, b, Config{Algorithm: RowMajor})
		for _, width := range []int{0, 1, n / 2, n} {
			got := k.WindowScores(width)
			if len(got) != n-width+1 {
				t.Fatalf("WindowScores(%d) has %d entries, want %d", width, len(got), n-width+1)
			}
			for l, g := range got {
				if want := lcs.ScoreFull(a, b[l:l+width]); g != want {
					t.Fatalf("WindowScores(%d)[%d] = %d, want %d", width, l, g, want)
				}
			}
		}
	}
}

func TestWindowScoresAdjacentDifferByAtMostOne(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a, b := randString(rng, 50, 2), randString(rng, 300, 2)
	k := mustSolve(t, a, b, Config{Algorithm: GridReduction, Workers: 2})
	scores := k.WindowScores(40)
	for l := 1; l < len(scores); l++ {
		d := scores[l] - scores[l-1]
		if d < -1 || d > 1 {
			t.Fatalf("adjacent window scores jump by %d at %d", d, l)
		}
	}
}

func TestHBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a, b := randString(rng, 10, 3), randString(rng, 14, 3)
	k := mustSolve(t, a, b, Config{})
	size := k.M() + k.N()
	// H(i, m+n) = m for every i; H(i, 0) = m - i for i ≤ m.
	for i := 0; i <= size; i++ {
		if k.H(i, size) != k.M() {
			t.Fatalf("H(%d, %d) = %d, want m = %d", i, size, k.H(i, size), k.M())
		}
	}
	for i := 0; i <= k.M(); i++ {
		if k.H(i, 0) != k.M()-i {
			t.Fatalf("H(%d, 0) = %d, want %d", i, k.H(i, 0), k.M()-i)
		}
	}
}

func TestQueryPanics(t *testing.T) {
	k := mustSolve(t, []byte("ab"), []byte("cd"), Config{})
	for name, f := range map[string]func(){
		"H":               func() { k.H(-1, 0) },
		"StringSubstring": func() { k.StringSubstring(0, 5) },
		"SubstringString": func() { k.SubstringString(2, 1) },
		"WindowScores":    func() { k.WindowScores(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted out-of-range arguments", name)
				}
			}()
			f()
		}()
	}
}

func TestDefaultHybridDepth(t *testing.T) {
	if d := defaultHybridDepth(100, 100, 1); d != 0 {
		t.Fatalf("small sequential depth = %d, want 0", d)
	}
	if d := defaultHybridDepth(1<<20, 1<<20, 1); d < 3 {
		t.Fatalf("large input depth = %d, want ≥ 3", d)
	}
	if d := defaultHybridDepth(100, 100, 8); d < 3 {
		t.Fatalf("8 workers depth = %d, want ≥ 3", d)
	}
}

// TestPrepareAndMemoryBytes pins the serving-layer hooks: Prepare
// builds the same dominance structure queries build lazily (answers
// must not change), and MemoryBytes reports a plausible resident size
// that grows with the kernel order.
func TestPrepareAndMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	a := randString(rng, 90, 3)
	b := randString(rng, 70, 3)
	lazy := mustSolve(t, a, b, Config{})
	eager := mustSolve(t, a, b, Config{})
	if eager.Prepare() != eager {
		t.Fatal("Prepare does not return its receiver")
	}
	eager.Prepare() // idempotent
	for i := 0; i <= len(b); i++ {
		if lazy.StringSubstring(0, i) != eager.StringSubstring(0, i) {
			t.Fatalf("prepared kernel deviates at window [0,%d)", i)
		}
	}
	small := mustSolve(t, a[:10], b[:10], Config{})
	if small.MemoryBytes() <= 0 || eager.MemoryBytes() <= small.MemoryBytes() {
		t.Fatalf("MemoryBytes not monotone: small=%d large=%d", small.MemoryBytes(), eager.MemoryBytes())
	}
	if min := 4 * (len(a) + len(b)); eager.MemoryBytes() < min {
		t.Fatalf("MemoryBytes %d below the bare permutation size %d", eager.MemoryBytes(), min)
	}
}
