package steadyant

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semilocal/internal/monge"
	"semilocal/internal/perm"
)

var allVariants = []Variant{Base, Precalc, Memory, Combined}

// TestExhaustiveSmall validates every variant against the naive min-plus
// oracle on every pair of permutations of orders 1…5 — 14 872 products
// per variant, covering every branch of the ant passage at these sizes.
func TestExhaustiveSmall(t *testing.T) {
	for n := 1; n <= 5; n++ {
		var perms []perm.Permutation
		perm.All(n, func(p perm.Permutation) { perms = append(perms, p) })
		for _, p := range perms {
			for _, q := range perms {
				want := monge.MultiplyNaive(p, q)
				for _, v := range allVariants {
					got := MultiplyVariant(p, q, v)
					if !got.Equal(want) {
						t.Fatalf("n=%d %v: %v ⊙ %v = %v, want %v",
							n, v, p.RowToCol(), q.RowToCol(), got.RowToCol(), want.RowToCol())
					}
				}
			}
		}
	}
}

func TestRandomMediumAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(64)
		p, q := perm.Random(n, rng), perm.Random(n, rng)
		want := monge.MultiplyNaive(p, q)
		for _, v := range allVariants {
			if got := MultiplyVariant(p, q, v); !got.Equal(want) {
				t.Fatalf("n=%d %v: mismatch for %v ⊙ %v", n, v, p.RowToCol(), q.RowToCol())
			}
		}
	}
}

func TestVariantsAgreeLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{257, 1000, 4096, 10001} {
		p, q := perm.Random(n, rng), perm.Random(n, rng)
		want := MultiplyVariant(p, q, Base)
		if err := want.Validate(); err != nil {
			t.Fatalf("n=%d: base result invalid: %v", n, err)
		}
		for _, v := range []Variant{Precalc, Memory, Combined} {
			if got := MultiplyVariant(p, q, v); !got.Equal(want) {
				t.Fatalf("n=%d: %v disagrees with base", n, v)
			}
		}
	}
}

func TestMultiplyIdentityLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		p := perm.Random(n, rng)
		id := perm.Identity(n)
		if !Multiply(p, id).Equal(p) || !Multiply(id, p).Equal(p) {
			t.Fatalf("identity law fails at n=%d", n)
		}
	}
}

func TestMultiplyAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%96)
		r := rand.New(rand.NewSource(seed))
		p, q, s := perm.Random(n, r), perm.Random(n, r), perm.Random(n, r)
		return Multiply(Multiply(p, q), s).Equal(Multiply(p, Multiply(q, s)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyReverseAbsorbs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 1001} {
		rev := perm.Reverse(n)
		if !Multiply(rev, rev).Equal(rev) {
			t.Fatalf("rev ⊙ rev ≠ rev at n=%d", n)
		}
		// Reverse is absorbing: anything times reverse is reverse.
		rng := rand.New(rand.NewSource(int64(n)))
		p := perm.Random(n, rng)
		if !Multiply(p, rev).Equal(rev) || !Multiply(rev, p).Equal(rev) {
			t.Fatalf("reverse not absorbing at n=%d", n)
		}
	}
}

func TestMultiplyParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 7, 64, 1000, 5000} {
		p, q := perm.Random(n, rng), perm.Random(n, rng)
		want := Multiply(p, q)
		for _, depth := range []int{0, 1, 2, 4, 6} {
			got := MultiplyParallel(p, q, ParallelOptions{SwitchDepth: depth, Workers: 4})
			if !got.Equal(want) {
				t.Fatalf("n=%d depth=%d: parallel disagrees with sequential", n, depth)
			}
		}
	}
}

func TestMultiplySizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	Multiply(perm.Identity(3), perm.Identity(4))
}

func TestMultiplyZeroOrder(t *testing.T) {
	got := Multiply(perm.Identity(0), perm.Identity(0))
	if got.Size() != 0 {
		t.Fatal("empty product should be empty")
	}
}

func TestRank5(t *testing.T) {
	seen := make(map[int]bool)
	perm.All(5, func(p perm.Permutation) {
		r := rank5(p.RowToCol())
		if r < 0 || r >= factorial5 {
			t.Fatalf("rank5(%v) = %d out of range", p.RowToCol(), r)
		}
		if seen[r] {
			t.Fatalf("rank collision at %d", r)
		}
		seen[r] = true
	})
	if rank5([]int32{0, 1, 2, 3, 4}) != 0 {
		t.Fatal("identity should rank 0")
	}
	// Padded smaller permutations rank equal to their padded form.
	if rank5([]int32{1, 0}) != rank5([]int32{1, 0, 2, 3, 4}) {
		t.Fatal("padding changes rank")
	}
}

func TestDirectSum(t *testing.T) {
	a := perm.FromRowToCol([]int32{1, 0})
	b := perm.FromRowToCol([]int32{2, 0, 1})
	s := DirectSum(a, b)
	want := []int32{1, 0, 4, 2, 3}
	for i, w := range want {
		if s.Col(i) != int(w) {
			t.Fatalf("DirectSum wrong at %d: %v", i, s.RowToCol())
		}
	}
	// Direct sums multiply blockwise under the sticky product.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		n1, n2 := 1+rng.Intn(10), 1+rng.Intn(10)
		p1, q1 := perm.Random(n1, rng), perm.Random(n1, rng)
		p2, q2 := perm.Random(n2, rng), perm.Random(n2, rng)
		got := Multiply(DirectSum(p1, p2), DirectSum(q1, q2))
		want := DirectSum(Multiply(p1, q1), Multiply(p2, q2))
		if !got.Equal(want) {
			t.Fatalf("(p1⊕p2)⊙(q1⊕q2) ≠ (p1⊙q1)⊕(p2⊙q2) at n1=%d n2=%d", n1, n2)
		}
	}
}

func TestMultiplyWithBaseSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(80)
		p, q := perm.Random(n, rng), perm.Random(n, rng)
		want := monge.MultiplyNaive(p, q)
		for base := 1; base <= 5; base++ {
			if got := MultiplyWithBase(p, q, base); !got.Equal(want) {
				t.Fatalf("base=%d disagrees at n=%d", base, n)
			}
		}
	}
}

func TestMultiplyWithBaseRejectsBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("base 6 accepted")
		}
	}()
	MultiplyWithBase(perm.Identity(8), perm.Identity(8), 6)
}
