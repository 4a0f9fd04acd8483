package hybrid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semilocal/internal/combing"
	"semilocal/internal/monge"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

func randString(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(sigma))
	}
	return s
}

func TestRecursiveMatchesIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		m, n := rng.Intn(25), rng.Intn(25)
		sigma := 1 + rng.Intn(4)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		want := combing.RowMajor(a, b)
		if got := recursive(a, b, monge.MultiplyNaive); !got.Equal(want) {
			t.Fatalf("Recursive (naive mult) disagrees on a=%v b=%v", a, b)
		}
		if got := Recursive(a, b, nil); !got.Equal(want) {
			t.Fatalf("Recursive (steady ant) disagrees on a=%v b=%v", a, b)
		}
	}
}

func TestRecursiveBaseCases(t *testing.T) {
	if !Recursive([]byte("x"), []byte("x"), nil).Equal(perm.Identity(2)) {
		t.Fatal("match base case should be the identity kernel")
	}
	if !Recursive([]byte("x"), []byte("y"), nil).Equal(perm.Reverse(2)) {
		t.Fatal("mismatch base case should be the reversal kernel")
	}
	for _, c := range [][2][]byte{{nil, nil}, {[]byte("ab"), nil}, {nil, []byte("ab")}} {
		got := Recursive(c[0], c[1], nil)
		if !got.Equal(combing.RowMajor(c[0], c[1])) {
			t.Fatalf("empty base case wrong for %q,%q", c[0], c[1])
		}
	}
}

func TestHybridDepthSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(120), 1+rng.Intn(120)
		sigma := 1 + rng.Intn(4)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		want := combing.RowMajor(a, b)
		for depth := 0; depth <= 5; depth++ {
			got := Hybrid(a, b, Options{Depth: depth})
			if !got.Equal(want) {
				t.Fatalf("Hybrid depth=%d disagrees on m=%d n=%d", depth, m, n)
			}
		}
	}
}

func TestHybridParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		m, n := 50+rng.Intn(300), 50+rng.Intn(300)
		a, b := randString(rng, m, 4), randString(rng, n, 4)
		want := combing.RowMajor(a, b)
		got := Hybrid(a, b, Options{Depth: 4, Workers: 4})
		if !got.Equal(want) {
			t.Fatalf("parallel hybrid disagrees on m=%d n=%d", m, n)
		}
	}
}

func TestGridReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(250), 1+rng.Intn(250)
		sigma := 1 + rng.Intn(4)
		a, b := randString(rng, m, sigma), randString(rng, n, sigma)
		want := combing.RowMajor(a, b)
		for _, opt := range []GridOptions{
			{},
			{Tiles: 4},
			{Tiles: 7},
			{Workers: 3, Tiles: 8},
			{Workers: 2, Tiles: 16, Use16: true},
		} {
			if got := GridReduction(a, b, opt); !got.Equal(want) {
				t.Fatalf("GridReduction %+v disagrees on m=%d n=%d", opt, m, n)
			}
		}
	}
}

func TestGridReductionSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	shapes := [][2]int{{1, 200}, {200, 1}, {3, 500}, {500, 3}, {1000, 30}}
	for _, s := range shapes {
		a, b := randString(rng, s[0], 3), randString(rng, s[1], 3)
		want := combing.RowMajor(a, b)
		if got := GridReduction(a, b, GridOptions{Workers: 2, Tiles: 8}); !got.Equal(want) {
			t.Fatalf("GridReduction disagrees on shape %v", s)
		}
	}
}

func TestGridReductionEmpty(t *testing.T) {
	got := GridReduction(nil, []byte("ab"), GridOptions{Tiles: 4})
	if !got.Equal(combing.RowMajor(nil, []byte("ab"))) {
		t.Fatal("empty-a case wrong")
	}
}

func TestOptimalSplit(t *testing.T) {
	cases := []struct {
		m, n, target int
		use16        bool
	}{
		{1000, 1000, 1, false},
		{1000, 1000, 8, false},
		{10, 100000, 16, false},
		{100000, 100000, 4, true},
		{3, 3, 100, false},
	}
	for _, c := range cases {
		mo, no := optimalSplit(c.m, c.n, c.target, c.use16)
		if mo < 1 || no < 1 || mo > c.m || no > c.n {
			t.Fatalf("optimalSplit(%+v) = (%d,%d) out of range", c, mo, no)
		}
		if mo*no < c.target && (mo < c.m || no < c.n) {
			t.Fatalf("optimalSplit(%+v) = (%d,%d): too few tiles", c, mo, no)
		}
		if c.use16 {
			if ceilDiv(c.m, mo)+ceilDiv(c.n, no) > combing.Max16 {
				t.Fatalf("optimalSplit(%+v): tiles too large for 16-bit indices", c)
			}
		}
	}
}

func TestComposeAgainstDirectCombing(t *testing.T) {
	// composeA and composeB must reproduce the kernel of concatenated
	// strings exactly, in both orientations.
	rng := rand.New(rand.NewSource(36))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m1, m2, n := 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a1, a2 := randString(r, m1, 3), randString(r, m2, 3)
		b := randString(r, n, 3)
		a := append(append([]byte{}, a1...), a2...)
		viaA := composeA(combing.RowMajor(a1, b), combing.RowMajor(a2, b), m1, m2, n, steadyant.Multiply)
		if !viaA.Equal(combing.RowMajor(a, b)) {
			return false
		}
		viaB := composeB(combing.RowMajor(b, a1), combing.RowMajor(b, a2), n, m1, m2, steadyant.Multiply)
		return viaB.Equal(combing.RowMajor(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestCutsAndSpans(t *testing.T) {
	c := cuts(10, 3)
	if c[0] != 0 || c[3] != 10 {
		t.Fatalf("cuts = %v", c)
	}
	s := spans(c)
	total := 0
	for _, v := range s {
		if v <= 0 {
			t.Fatalf("empty span in %v", s)
		}
		total += v
	}
	if total != 10 {
		t.Fatalf("spans sum to %d", total)
	}
	if got := mergePairs([]int{1, 2, 3}); len(got) != 2 || got[0] != 3 || got[1] != 3 {
		t.Fatalf("mergePairs = %v", got)
	}
}
