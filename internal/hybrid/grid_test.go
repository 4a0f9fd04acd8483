package hybrid

import (
	"math/rand"
	"testing"

	"semilocal/internal/combing"
	"semilocal/internal/monge"
)

func TestDecideRowReduction(t *testing.T) {
	cases := []struct {
		mOuter, nOuter   int
		heights, widths  []int
		wantRowReduction bool
	}{
		{1, 4, []int{10}, []int{5, 5, 5, 5}, true},  // only columns mergeable
		{4, 1, []int{5, 5, 5, 5}, []int{10}, false}, // only rows mergeable
		{2, 2, []int{20, 20}, []int{5, 5}, true},    // tall tiles: merge horizontally
		{2, 2, []int{5, 5}, []int{20, 20}, false},   // wide tiles: merge vertically
		{2, 2, []int{10, 10}, []int{10, 10}, true},  // square ties prefer rows
	}
	for _, c := range cases {
		got := decideRowReduction(c.mOuter, c.nOuter, c.heights, c.widths)
		if got != c.wantRowReduction {
			t.Errorf("decideRowReduction(%d,%d,%v,%v) = %v, want %v",
				c.mOuter, c.nOuter, c.heights, c.widths, got, c.wantRowReduction)
		}
	}
}

func TestGridReductionCustomMult(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a, b := randString(rng, 60, 3), randString(rng, 70, 3)
	want := combing.RowMajor(a, b)
	got := gridReduction(a, b, GridOptions{Tiles: 4}, monge.MultiplyNaive)
	if !got.Equal(want) {
		t.Fatal("GridReduction with injected multiplier disagrees")
	}
}

func TestHybridCustomMult(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	a, b := randString(rng, 40, 3), randString(rng, 50, 3)
	want := combing.RowMajor(a, b)
	got := hybridRec(a, b, 3, nil, nil, monge.MultiplyNaive)
	if !got.Equal(want) {
		t.Fatal("Hybrid with injected multiplier disagrees")
	}
}

func TestNewGridShape(t *testing.T) {
	g := newGrid(3, 5)
	if len(g) != 3 || len(g[0]) != 5 {
		t.Fatalf("newGrid(3,5) has shape %dx%d", len(g), len(g[0]))
	}
}
