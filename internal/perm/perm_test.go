package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17} {
		p := Identity(n)
		if p.Size() != n {
			t.Fatalf("Identity(%d).Size() = %d", n, p.Size())
		}
		for i := 0; i < n; i++ {
			if p.Col(i) != i {
				t.Fatalf("Identity(%d).Col(%d) = %d", n, i, p.Col(i))
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Identity(%d) invalid: %v", n, err)
		}
	}
}

func TestReverse(t *testing.T) {
	p := Reverse(4)
	want := []int32{3, 2, 1, 0}
	for i, w := range want {
		if p.Col(i) != int(w) {
			t.Fatalf("Reverse(4).Col(%d) = %d, want %d", i, p.Col(i), w)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := [][]int32{
		{0, 0},       // duplicate column
		{1, 2},       // out of range
		{-1, 0},      // negative
		{0, 2, 2, 1}, // duplicate later
	}
	for _, c := range cases {
		if err := FromRowToCol(c).Validate(); err == nil {
			t.Errorf("Validate(%v) accepted invalid permutation", c)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid permutation")
		}
	}()
	New([]int32{0, 0})
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		p := Random(n, rng)
		inv := p.Inverse()
		for i := 0; i < n; i++ {
			if inv.Col(p.Col(i)) != i {
				t.Fatalf("inverse broken at row %d", i)
			}
		}
		if !p.Inverse().Inverse().Equal(p) {
			t.Fatal("double inverse is not identity transform")
		}
	}
}

func TestRotate180(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 1
		p := Random(n, rng)
		r := p.Rotate180()
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if r.Col(n-1-i) != n-1-p.Col(i) {
				t.Fatalf("Rotate180 wrong at row %d", i)
			}
		}
		if !r.Rotate180().Equal(p) {
			t.Fatal("Rotate180 is not an involution")
		}
	}
}

func TestApplyAfter(t *testing.T) {
	p := New([]int32{1, 2, 0})
	q := New([]int32{2, 0, 1})
	r := p.ApplyAfter(q)
	for i := 0; i < 3; i++ {
		if r.Col(i) != q.Col(p.Col(i)) {
			t.Fatalf("ApplyAfter wrong at %d", i)
		}
	}
	// p followed by its inverse is the identity.
	if !p.ApplyAfter(p.Inverse()).Equal(Identity(3)) {
		t.Fatal("p ∘ p⁻¹ ≠ id")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := New([]int32{1, 0})
	c := p.Clone()
	c.RowToCol()[0] = 0
	if p.Col(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	if !Identity(3).Equal(Identity(3)) {
		t.Fatal("identical permutations not Equal")
	}
	if Identity(3).Equal(Identity(4)) {
		t.Fatal("different orders Equal")
	}
	if Identity(3).Equal(Reverse(3)) {
		t.Fatal("different permutations Equal")
	}
}

func TestRandomIsValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := Random(n, rand.New(rand.NewSource(seed)))
		return p.Validate() == nil && p.Size() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmall(t *testing.T) {
	got := New([]int32{1, 0}).String()
	want := ". 1 \n1 . \n"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if Identity(40).String() != "Permutation(order 40)" {
		t.Fatal("large String format changed")
	}
}

// New wraps a row→column index array as a Permutation. It panics if the
// array is not a permutation of {0 … len-1}; use FromRowToCol for
// non-validating construction of trusted data.
func New(rowToCol []int32) Permutation {
	p := Permutation{rowToCol: rowToCol}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// Clone returns a deep copy.
func (p Permutation) Clone() Permutation {
	r := make([]int32, len(p.rowToCol))
	copy(r, p.rowToCol)
	return Permutation{rowToCol: r}
}
