package combing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semilocal/internal/lcs"
	"semilocal/internal/monge"
	"semilocal/internal/perm"
)

func randString(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(sigma))
	}
	return s
}

// bruteH computes the semi-local H matrix straight from Definition 3.3:
// H[i][j] = LCS(a, bPad[i : j+m)) where bPad = ?^m b ?^m and ? matches
// any character, with H[i][j] = j+m-i when i ≥ j+m.
func bruteH(a, b []byte) [][]int {
	m, n := len(a), len(b)
	size := m + n + 1
	h := make([][]int, size)
	// padMatch reports whether a[x] matches bPad[y].
	padMatch := func(x, y int) bool {
		if y < m || y >= m+n {
			return true // wildcard
		}
		return a[x] == b[y-m]
	}
	for i := 0; i < size; i++ {
		h[i] = make([]int, size)
		for j := 0; j < size; j++ {
			if i >= j+m {
				h[i][j] = j + m - i
				continue
			}
			// LCS(a, bPad[i : j+m)) by DP over pad positions.
			l := j + m - i
			row := make([]int, l+1)
			for x := 0; x < m; x++ {
				diag := 0
				for y := 1; y <= l; y++ {
					up := row[y]
					best := up
					if row[y-1] > best {
						best = row[y-1]
					}
					if padMatch(x, i+y-1) && diag+1 > best {
						best = diag + 1
					}
					row[y] = best
					diag = up
				}
			}
			h[i][j] = row[l]
		}
	}
	return h
}

// kernelH evaluates H(i,j) = j + m - i - PΣ(i,j) from a kernel.
func kernelH(kernel perm.Permutation, m int, dist []int32, i, j int) int {
	w := kernel.Size() + 1
	return j + m - i - int(dist[i*w+j])
}

// TestKernelMatchesDefinition is the anchor test of the repository: the
// kernel produced by iterative combing, read through the dominance
// formula, must reproduce the H matrix of Definition 3.3 exactly.
func TestKernelMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][2][]byte{
		{[]byte("x"), []byte("y")},
		{[]byte("x"), []byte("x")},
		{[]byte("ab"), []byte("ba")},
		{[]byte("baabab"), []byte("ababaa")},
	}
	for trial := 0; trial < 40; trial++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		sigma := 1 + rng.Intn(4)
		cases = append(cases, [2][]byte{randString(rng, m, sigma), randString(rng, n, sigma)})
	}
	for _, c := range cases {
		a, b := c[0], c[1]
		m, n := len(a), len(b)
		kernel := RowMajor(a, b)
		if err := kernel.Validate(); err != nil {
			t.Fatalf("kernel invalid for a=%q b=%q: %v", a, b, err)
		}
		want := bruteH(a, b)
		dist := monge.Distribution(kernel)
		for i := 0; i <= m+n; i++ {
			for j := 0; j <= m+n; j++ {
				if got := kernelH(kernel, m, dist, i, j); got != want[i][j] {
					t.Fatalf("a=%q b=%q: H(%d,%d) = %d, want %d", a, b, i, j, got, want[i][j])
				}
			}
		}
	}
}

// All kernel algorithms must agree with RowMajor exactly.
func TestVariantsAgree(t *testing.T) {
	variants := map[string]func(a, b []byte) perm.Permutation{
		"Antidiag":           func(a, b []byte) perm.Permutation { return Antidiag(a, b, Options{}) },
		"AntidiagBranchless": func(a, b []byte) perm.Permutation { return Antidiag(a, b, Options{Branchless: true}) },
		"AntidiagParallel":   func(a, b []byte) perm.Permutation { return Antidiag(a, b, Options{Workers: 3, MinChunk: 1}) },
		"AntidiagParBranchl": func(a, b []byte) perm.Permutation {
			return Antidiag(a, b, Options{Workers: 2, Branchless: true, MinChunk: 1})
		},
		"AntidiagSWAR":       func(a, b []byte) perm.Permutation { return AntidiagSWAR(a, b, Options{}) },
		"AntidiagSWARPar":    func(a, b []byte) perm.Permutation { return AntidiagSWAR(a, b, Options{Workers: 2, MinChunk: 1}) },
		"RowMajor16":         RowMajor16,
		"Antidiag16":         func(a, b []byte) perm.Permutation { return Antidiag16(a, b, Options{}) },
		"Antidiag16Parallel": func(a, b []byte) perm.Permutation { return Antidiag16(a, b, Options{Workers: 2, MinChunk: 1}) },
		"LoadBalanced":       func(a, b []byte) perm.Permutation { return LoadBalanced(a, b, Options{}, monge.MultiplyNaive) },
		"LoadBalancedBrless": func(a, b []byte) perm.Permutation {
			return LoadBalanced(a, b, Options{Branchless: true}, monge.MultiplyNaive)
		},
		"LoadBalancedWorkers": func(a, b []byte) perm.Permutation {
			return LoadBalanced(a, b, Options{Workers: 2, MinChunk: 1}, monge.MultiplyNaive)
		},
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		m, n := rng.Intn(30), rng.Intn(30)
		sigma := 1 + rng.Intn(5)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		want := RowMajor(a, b)
		for name, f := range variants {
			if got := f(a, b); !got.Equal(want) {
				t.Fatalf("%s disagrees with RowMajor on a=%v b=%v:\ngot  %v\nwant %v",
					name, a, b, got.RowToCol(), want.RowToCol())
			}
		}
	}
}

func TestVariantsAgreeSkewedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := [][2]int{{1, 40}, {40, 1}, {2, 35}, {35, 2}, {5, 100}, {100, 5}}
	for _, s := range shapes {
		a, b := randString(rng, s[0], 3), randString(rng, s[1], 3)
		want := RowMajor(a, b)
		if got := Antidiag(a, b, Options{Branchless: true}); !got.Equal(want) {
			t.Fatalf("Antidiag disagrees on shape %v", s)
		}
		if got := LoadBalanced(a, b, Options{}, monge.MultiplyNaive); !got.Equal(want) {
			t.Fatalf("LoadBalanced disagrees on shape %v", s)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	for _, c := range [][2][]byte{{nil, nil}, {[]byte("abc"), nil}, {nil, []byte("xy")}} {
		a, b := c[0], c[1]
		k := Antidiag(a, b, Options{})
		if err := k.Validate(); err != nil {
			t.Fatalf("empty case kernel invalid: %v", err)
		}
		if !k.Equal(RowMajor(a, b)) {
			t.Fatalf("empty case mismatch for %q,%q", a, b)
		}
		if got := ScoreFromKernel(k, len(a), len(b)); got != 0 {
			t.Fatalf("score = %d, want 0", got)
		}
	}
}

func TestScoreFromKernelMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		m, n := rng.Intn(50), rng.Intn(50)
		sigma := 1 + rng.Intn(6)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		k := RowMajor(a, b)
		if got, want := ScoreFromKernel(k, m, n), lcs.ScoreFull(a, b); got != want {
			t.Fatalf("score(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
}

func TestScoreProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		k := Antidiag(a, b, Options{Branchless: true})
		return k.Validate() == nil &&
			ScoreFromKernel(k, len(a), len(b)) == lcs.ScoreFull(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestIdenticalStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := randString(rng, 200, 4)
	k := RowMajor(s, s)
	if got := ScoreFromKernel(k, len(s), len(s)); got != len(s) {
		t.Fatalf("LCS(s,s) = %d, want %d", got, len(s))
	}
}

func TestRowMajor16PanicsOnLargeOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RowMajor16 accepted m+n > 2^16")
		}
	}()
	RowMajor16(make([]byte, Max16), make([]byte, 1))
}

// The kernel of a vs b and the kernel of b vs a are related by 180°
// rotation (Theorem 3.5).
func TestFlipTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		m, n := rng.Intn(25), rng.Intn(25)
		sigma := 1 + rng.Intn(4)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		pab := RowMajor(a, b)
		pba := RowMajor(b, a)
		if !pab.Equal(pba.Rotate180()) {
			t.Fatalf("flip theorem fails for a=%v b=%v", a, b)
		}
	}
}

func TestArithmeticSelectAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		m, n := rng.Intn(50), rng.Intn(50)
		a, b := randString(rng, m, 3), randString(rng, n, 3)
		want := RowMajor(a, b)
		got := Antidiag(a, b, Options{Branchless: true, ArithmeticSelect: true})
		if !got.Equal(want) {
			t.Fatalf("arithmetic select disagrees on a=%v b=%v", a, b)
		}
	}
}

func TestMinMaxSelectAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		m, n := rng.Intn(50), rng.Intn(50)
		a, b := randString(rng, m, 3), randString(rng, n, 3)
		want := RowMajor(a, b)
		got := Antidiag(a, b, Options{Branchless: true, MinMaxSelect: true})
		if !got.Equal(want) {
			t.Fatalf("min/max select disagrees on a=%v b=%v", a, b)
		}
	}
}
