package perm

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= MaxPackedOrder; n++ {
		for trial := 0; trial < 30; trial++ {
			p := Random(n, rng)
			if got := Unpack(Pack(p), n); !got.Equal(p) {
				t.Fatalf("round trip failed for order %d: %v -> %v", n, p.RowToCol(), got.RowToCol())
			}
		}
	}
}

func TestPackDistinct(t *testing.T) {
	// All permutations of order 5 must pack to distinct words.
	seen := make(map[uint32]bool)
	All(5, func(p Permutation) {
		w := Pack(p)
		if seen[w] {
			t.Fatalf("collision for %v", p.RowToCol())
		}
		seen[w] = true
	})
	if len(seen) != 120 {
		t.Fatalf("enumerated %d permutations of order 5, want 120", len(seen))
	}
}

func TestPackPairDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	All(3, func(p Permutation) {
		All(3, func(q Permutation) {
			k := PackPair(p, q)
			if seen[k] {
				t.Fatalf("pair key collision")
			}
			seen[k] = true
		})
	})
	if len(seen) != 36 {
		t.Fatalf("got %d pair keys, want 36", len(seen))
	}
}

func TestAllCounts(t *testing.T) {
	counts := []int{1, 1, 2, 6, 24, 120}
	for n, want := range counts {
		got := 0
		All(n, func(p Permutation) {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			got++
		})
		if got != want {
			t.Fatalf("All(%d) produced %d permutations, want %d", n, got, want)
		}
	}
}

func TestPackPanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pack accepted order 9")
		}
	}()
	Pack(Identity(9))
}

// Unpack decodes a word produced by Pack back into a permutation of the
// given order.
func Unpack(w uint32, n int) Permutation {
	if n > MaxPackedOrder {
		panic(fmt.Sprintf("perm: cannot unpack order %d > %d", n, MaxPackedOrder))
	}
	r := make([]int32, n)
	for i := 0; i < n; i++ {
		r[i] = int32((w >> (4 * i)) & 0xf)
	}
	return Permutation{rowToCol: r}
}

// PackPair combines two packed permutations into a single 64-bit lookup
// key for the precalc product table.
func PackPair(p, q Permutation) uint64 {
	return uint64(Pack(p))<<32 | uint64(Pack(q))
}
