package bitlcs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semilocal/internal/lcs"
)

func randBinary(rng *rand.Rand, n int, pOne float64) []byte {
	s := make([]byte, n)
	for i := range s {
		if rng.Float64() < pOne {
			s[i] = 1
		}
	}
	return s
}

var versions = Versions()

func TestScoreSmallExhaustive(t *testing.T) {
	// Every pair of binary strings with lengths 1…9: full coverage of the
	// sub-word triangles at sizes far below W.
	for m := 1; m <= 9; m += 4 {
		for n := 1; n <= 9; n += 3 {
			for am := 0; am < 1<<m; am++ {
				for bm := 0; bm < 1<<n; bm++ {
					a := make([]byte, m)
					b := make([]byte, n)
					for i := range a {
						a[i] = byte(am>>i) & 1
					}
					for j := range b {
						b[j] = byte(bm>>j) & 1
					}
					want := lcs.ScoreFull(a, b)
					for _, v := range versions {
						if got := Score(a, b, v, Options{}); got != want {
							t.Fatalf("%v: Score(%v,%v) = %d, want %d", v, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

func TestScoreAroundWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := []int{1, 63, 64, 65, 127, 128, 129, 200, 256, 300}
	for _, m := range lengths {
		for _, n := range lengths {
			a := randBinary(rng, m, 0.5)
			b := randBinary(rng, n, 0.3)
			want := lcs.PrefixRowMajor(a, b)
			for _, v := range versions {
				if got := Score(a, b, v, Options{}); got != want {
					t.Fatalf("%v: m=%d n=%d: got %d, want %d", v, m, n, got, want)
				}
			}
			if got := CIPR(a, b); got != want {
				t.Fatalf("CIPR: m=%d n=%d: got %d, want %d", m, n, got, want)
			}
		}
	}
}

func TestScoreRandomDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(500), 1+rng.Intn(500)
		p := rng.Float64()
		a, b := randBinary(rng, m, p), randBinary(rng, n, 1-p)
		want := lcs.PrefixRowMajor(a, b)
		for _, v := range versions {
			if got := Score(a, b, v, Options{}); got != want {
				t.Fatalf("%v: trial %d (m=%d n=%d p=%.2f): got %d, want %d", v, trial, m, n, p, got, want)
			}
		}
	}
}

func TestScoreParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		m, n := 500+rng.Intn(3000), 500+rng.Intn(3000)
		a, b := randBinary(rng, m, 0.5), randBinary(rng, n, 0.5)
		want := lcs.PrefixRowMajor(a, b)
		for _, v := range versions {
			// MinBlocks 0 is the built-in split threshold.
			for _, mb := range []int{0, 1} {
				if got := Score(a, b, v, Options{Workers: 4, MinBlocks: mb}); got != want {
					t.Fatalf("%v parallel (min blocks %d): got %d, want %d (m=%d n=%d)", v, mb, got, want, m, n)
				}
			}
		}
	}
}

func TestScoreProperty(t *testing.T) {
	f := func(am, bm uint64, mRaw, nRaw uint8) bool {
		m, n := 1+int(mRaw%64), 1+int(nRaw%64)
		a := make([]byte, m)
		b := make([]byte, n)
		for i := range a {
			a[i] = byte(am>>i) & 1
		}
		for j := range b {
			b[j] = byte(bm>>j) & 1
		}
		want := lcs.ScoreFull(a, b)
		return Score(a, b, FormulaOpt, Options{}) == want && CIPR(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	if got := Score(nil, []byte{1}, FormulaOpt, Options{}); got != 0 {
		t.Fatal("empty a should score 0")
	}
	if got := Score([]byte{1}, nil, Old, Options{}); got != 0 {
		t.Fatal("empty b should score 0")
	}
	all0 := make([]byte, 1000)
	all1 := make([]byte, 777)
	for i := range all1 {
		all1[i] = 1
	}
	for _, v := range versions {
		if got := Score(all0, all1, v, Options{}); got != 0 {
			t.Fatalf("%v: disjoint strings should score 0, got %d", v, got)
		}
		if got := Score(all0, all0[:500], v, Options{}); got != 500 {
			t.Fatalf("%v: identical prefix should score 500, got %d", v, got)
		}
	}
}

func TestScoreRejectsNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-binary input accepted")
		}
	}()
	Score([]byte{2}, []byte{0}, Old, Options{})
}

func TestCIPRGeneralAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		m, n := rng.Intn(300), rng.Intn(300)
		sigma := 1 + rng.Intn(26)
		a := make([]byte, m)
		b := make([]byte, n)
		for i := range a {
			a[i] = byte('a' + rng.Intn(sigma))
		}
		for j := range b {
			b[j] = byte('a' + rng.Intn(sigma))
		}
		if got, want := CIPR(a, b), lcs.PrefixRowMajor(a, b); got != want {
			t.Fatalf("CIPR(σ=%d, m=%d, n=%d) = %d, want %d", sigma, m, n, got, want)
		}
	}
}
