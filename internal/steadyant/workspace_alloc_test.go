//go:build !race

package steadyant

import (
	"math/rand"
	"testing"

	"semilocal/internal/perm"
)

// TestWorkspaceZeroAllocsSteadyState pins the contract streaming
// sessions rely on: once a workspace has grown to an order, repeated
// multiplications at that order (and below) allocate nothing.
func TestWorkspaceZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	p := perm.Random(n, rng).RowToCol()
	q := perm.Random(n, rng).RowToCol()
	dst := make([]int32, n)
	var w Workspace
	w.MultiplyInto(p, q, dst) // grow to order n before counting
	if allocs := testing.AllocsPerRun(50, func() {
		w.MultiplyInto(p, q, dst)
	}); allocs != 0 {
		t.Fatalf("warmed workspace multiplication allocates %.1f times per run, want 0", allocs)
	}
	// A smaller order on the same workspace must also be free.
	small := perm.Random(64, rng).RowToCol()
	sdst := make([]int32, 64)
	if allocs := testing.AllocsPerRun(50, func() {
		w.MultiplyInto(small, small, sdst)
	}); allocs != 0 {
		t.Fatalf("smaller-order multiplication allocates %.1f times per run, want 0", allocs)
	}
}
