//go:build !race

package lcs

import (
	"math/rand"
	"testing"
)

// TestPrefixAntidiagAllocs pins the Figure 5 anti-diagonal baselines to
// their three diagonal buffers: no per-diagonal allocation (a closure
// built per anti-diagonal would add m+n-1 of them).
func TestPrefixAntidiagAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := randString(rng, 512, 4), randString(rng, 512, 4)
	for name, f := range map[string]func(a, b []byte) int{
		"PrefixAntidiag":           PrefixAntidiag,
		"PrefixAntidiagBranchless": PrefixAntidiagBranchless,
	} {
		if allocs := testing.AllocsPerRun(5, func() { f(a, b) }); allocs > 3 {
			t.Errorf("%s allocates %.0f times per 512×512 call, want ≤ 3", name, allocs)
		}
	}
}
