package stream

import (
	"math"
	"math/rand"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/oracle"
)

// fromScratch solves the final window in one shot with the session's
// default leaf configuration — the reference every streamed kernel
// must be bit-identical to.
func fromScratch(t *testing.T, a, window []byte) *core.Kernel {
	t.Helper()
	k, err := core.Solve(a, window, DefaultSolveConfig())
	if err != nil {
		t.Fatalf("from-scratch solve: %v", err)
	}
	return k
}

// checkIdentical asserts the session's published kernel is
// bit-identical to the from-scratch solve of the same window, and that
// the published metadata matches.
func checkIdentical(t *testing.T, s *Session, a, window []byte, label string) {
	t.Helper()
	st := s.g.Snapshot(0)
	if st.Window != len(window) {
		t.Fatalf("%s: published window %d bytes, want %d", label, st.Window, len(window))
	}
	want := fromScratch(t, a, window)
	if !st.Kernel.Permutation().Equal(want.Permutation()) {
		t.Fatalf("%s: streamed kernel differs from from-scratch solve (m=%d window=%d)",
			label, len(a), len(window))
	}
}

// checkSpine asserts the skew binary counter invariant white-box:
// every spine node covers at least twice the leaves of its successor,
// which caps the spine depth at log₂(leaves)+1.
func checkSpine(t *testing.T, s *spine, label string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for i, nd := range s.nodes {
		total += nd.leaves()
		if i > 0 && s.nodes[i-1].leaves() < 2*nd.leaves() {
			t.Fatalf("%s: spine invariant violated at %d: %d < 2·%d", label, i, s.nodes[i-1].leaves(), nd.leaves())
		}
	}
	if total != len(s.leaves) {
		t.Fatalf("%s: spine covers %d leaves, window has %d", label, total, len(s.leaves))
	}
	if L := len(s.leaves); L > 0 {
		if maxDepth := int(math.Log2(float64(L))) + 1; len(s.nodes) > maxDepth {
			t.Fatalf("%s: spine depth %d exceeds log2(%d)+1 = %d", label, len(s.nodes), L, maxDepth)
		}
	}
}

// TestStreamMatchesFromScratchRandomized is the differential suite of
// the issue: ≥100 randomized chunkings — 1-byte chunks, uneven sizes,
// and slides — each checked for bit-identity against a from-scratch
// solve after every mutation, with the final window cross-checked
// against the quadratic DP oracle.
func TestStreamMatchesFromScratchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randText := func(n, sigma int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(sigma))
		}
		return b
	}
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		m := rng.Intn(13) // 0 included: empty patterns must stream too
		sigma := []int{1, 2, 4}[rng.Intn(3)]
		a := randText(m, sigma)
		s, err := New(a, Config{})
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		var chunks [][]byte // surviving chunks, oldest first
		windowOf := func() []byte {
			var w []byte
			for _, c := range chunks {
				w = append(w, c...)
			}
			return w
		}
		ops := 6 + rng.Intn(14)
		for op := 0; op < ops; op++ {
			if len(chunks) > 0 && rng.Intn(4) == 0 {
				drop := 1 + rng.Intn(len(chunks))
				if err := s.Slide(drop); err != nil {
					t.Fatalf("trial %d op %d: Slide(%d): %v", trial, op, drop, err)
				}
				chunks = chunks[drop:]
			} else {
				size := 1 + rng.Intn(8)
				if rng.Intn(3) == 0 {
					size = 1 // force plenty of 1-byte chunks
				}
				chunk := randText(size, sigma)
				if err := s.Append(chunk); err != nil {
					t.Fatalf("trial %d op %d: Append: %v", trial, op, err)
				}
				chunks = append(chunks, chunk)
			}
			checkIdentical(t, s, a, windowOf(), "mid-trial")
			checkSpine(t, s.g.states[0], "mid-trial")
		}
		// Cross-check the final window against the quadratic DP: every
		// H entry of the streamed kernel must match the oracle matrix.
		window := windowOf()
		st := s.g.Snapshot(0)
		want := oracle.HMatrix(a, window)
		for i := range want {
			for j := range want[i] {
				if got := st.Kernel.H(i, j); got != want[i][j] {
					t.Fatalf("trial %d: H(%d,%d) = %d, oracle says %d (m=%d window=%d)",
						trial, i, j, got, want[i][j], m, len(window))
				}
			}
		}
		if got, want := st.Kernel.Score(), oracle.Score(a, window); got != want {
			t.Fatalf("trial %d: Score = %d, oracle says %d", trial, got, want)
		}
	}
}

// TestStreamOneByteChunks streams a text one byte at a time — the
// worst case for the composition tree — checking bit-identity at every
// step.
func TestStreamOneByteChunks(t *testing.T) {
	a := []byte("issip")
	text := []byte("mississippi_mississippi")
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range text {
		if err := s.Append(text[i : i+1]); err != nil {
			t.Fatalf("append byte %d: %v", i, err)
		}
		checkIdentical(t, s, a, text[:i+1], "one-byte")
		checkSpine(t, s.g.states[0], "one-byte")
	}
	if got, want := s.Kernel().Score(), oracle.Score(a, text); got != want {
		t.Fatalf("final score %d, oracle says %d", got, want)
	}
}

// TestStreamCompositionBound pins the amortized composition budget of
// the acceptance criteria: for append-only runs of L leaves, the total
// number of steady-ant compositions (merges plus publish folds) stays
// ≤ 2·L·log₂(L), i.e. ≤ 2·log₂(leaves) per append amortized.
func TestStreamCompositionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := []byte("pattern")
	for _, L := range []int{2, 3, 7, 8, 64, 100, 257, 512} {
		s, err := New(a, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < L; i++ {
			chunk := make([]byte, 1+rng.Intn(5))
			for j := range chunk {
				chunk[j] = byte('a' + rng.Intn(3))
			}
			if err := s.Append(chunk); err != nil {
				t.Fatal(err)
			}
		}
		bound := int64(math.Ceil(2 * float64(L) * math.Log2(float64(L))))
		if comps := s.g.Compositions(); comps > bound {
			t.Fatalf("L=%d: %d compositions exceed the amortized bound 2·L·log2(L) = %d", L, comps, bound)
		}
		if perAppend, lim := float64(s.g.Compositions())/float64(L), 2*math.Log2(float64(L)); perAppend > lim {
			t.Fatalf("L=%d: %.2f compositions per append exceed 2·log2(L) = %.2f", L, perAppend, lim)
		}
	}
}

// TestStreamLeafConfigInvariance streams the same chunking under
// different leaf solve algorithms; every one must publish bit-identical
// kernels (all kernel algorithms agree exactly, and composition
// preserves that).
func TestStreamLeafConfigInvariance(t *testing.T) {
	a := []byte("abracadabra")
	chunks := [][]byte{[]byte("ab"), []byte("r"), []byte("acad"), []byte("abraabra"), []byte("c")}
	configs := []core.Config{
		{Algorithm: core.RowMajor},
		{Algorithm: core.Antidiag},
		{Algorithm: core.Recursive},
		{Algorithm: core.Hybrid, Workers: 4},
	}
	for _, cfg := range configs {
		cfg := cfg
		s, err := New(a, Config{Solve: &cfg})
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		var window []byte
		for _, c := range chunks {
			if err := s.Append(c); err != nil {
				t.Fatalf("%v: %v", cfg.Algorithm, err)
			}
			window = append(window, c...)
			checkIdentical(t, s, a, window, cfg.Algorithm.String())
		}
	}
}

// TestStreamSlideEdges exercises slide boundary semantics: sliding to
// an empty window, appending after it, no-op slides, and range errors.
func TestStreamSlideEdges(t *testing.T) {
	a := []byte("window")
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"win", "dow", "wind", "o", "w"} {
		if err := s.Append([]byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Slide(0); err != nil {
		t.Fatalf("Slide(0): %v", err)
	}
	if err := s.Slide(-1); err == nil {
		t.Fatal("Slide(-1) should fail")
	}
	if err := s.Slide(6); err == nil {
		t.Fatal("sliding past the window should fail")
	}
	gen := s.g.Generation()
	if err := s.Slide(5); err != nil {
		t.Fatalf("slide to empty: %v", err)
	}
	if s.g.Generation() <= gen {
		t.Fatal("slide to empty must publish a new generation")
	}
	checkIdentical(t, s, a, nil, "empty window")
	if got := s.Kernel().Score(); got != 0 {
		t.Fatalf("empty window score %d, want 0", got)
	}
	if err := s.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after empty: %v", err)
	}
	checkIdentical(t, s, a, []byte("fresh"), "refill")
	// Empty appends are no-ops: no generation bump, same kernel.
	gen = s.g.Generation()
	if err := s.Append(nil); err != nil {
		t.Fatal(err)
	}
	if s.g.Generation() != gen {
		t.Fatal("empty append must not publish")
	}
}
