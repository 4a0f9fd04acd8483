package combing

import (
	"math/rand"
	"testing"

	"semilocal/internal/perm"
)

func TestFrontierIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
		for d := 0; d <= m+n-1; d++ {
			rho := Frontier(d, m, n)
			if err := rho.Validate(); err != nil {
				t.Fatalf("Frontier(%d, %d, %d) invalid: %v", d, m, n, err)
			}
		}
	}
}

func TestFrontierEndpoints(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {7, 7}, {1, 9}} {
		m, n := c[0], c[1]
		// Frontier(0) is the canonical start order: the identity labeling.
		if !Frontier(0, m, n).Equal(perm.Identity(m + n)) {
			t.Fatalf("Frontier(0, %d, %d) is not the identity", m, n)
		}
		// Frontier(m+n-1) is the canonical end order: verticals take
		// positions 0…n-1 (bottom edge), horizontals n…n+m-1 (right edge).
		last := Frontier(m+n-1, m, n)
		for l := 0; l < m; l++ {
			if last.Col(l) != n+l {
				t.Fatalf("end frontier: h-track %d at %d, want %d", l, last.Col(l), n+l)
			}
		}
		for r := 0; r < n; r++ {
			if last.Col(m+r) != r {
				t.Fatalf("end frontier: v-track %d at %d, want %d", r, last.Col(m+r), r)
			}
		}
	}
}

func TestFrontierStaircaseInterleaves(t *testing.T) {
	// Immediately before the first full anti-diagonal of a square grid,
	// the frontier alternates horizontal and vertical tracks.
	m, n := 4, 4
	rho := Frontier(m-1, m, n)
	// Walk order: h0 v0 h1 v1 h2 v2 h3 v3.
	for k := 0; k < m; k++ {
		if rho.Col(k) != 2*k {
			t.Fatalf("h-track %d at position %d, want %d", k, rho.Col(k), 2*k)
		}
		if rho.Col(m+k) != 2*k+1 {
			t.Fatalf("v-track %d at position %d, want %d", k, rho.Col(m+k), 2*k+1)
		}
	}
}
