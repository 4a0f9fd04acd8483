package core

import (
	"fmt"
	"math/rand"
	"testing"

	"semilocal/internal/combing"
)

// TestAntidiagBranchlessRoutesBySize pins the AntidiagBranchless route
// at the SWAR boundary. At m+n == combing.MaxSWAR the four-lane loop is
// eligible; one strand more, combing.AntidiagSWAR would panic, so a
// successful solve there shows the 32-bit loop ran. Both sides, in both
// orientations and with workers, must match RowMajor bit for bit.
func TestAntidiagBranchlessRoutesBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{1, 3} {
		for _, order := range []int{combing.MaxSWAR, combing.MaxSWAR + 1} {
			a := randString(rng, m, 2)
			b := randString(rng, order-m, 2)
			if got, want := combing.FitsSWAR(len(a), len(b)), order == combing.MaxSWAR; got != want {
				t.Fatalf("FitsSWAR(%d, %d) = %v, want %v", len(a), len(b), got, want)
			}
			for _, pair := range [][2][]byte{{a, b}, {b, a}} {
				want := combing.RowMajor(pair[0], pair[1])
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%dx%d/workers=%d", len(pair[0]), len(pair[1]), workers)
					k := mustSolve(t, pair[0], pair[1], Config{Algorithm: AntidiagBranchless, Workers: workers})
					if !k.Permutation().Equal(want) {
						t.Fatalf("%s: AntidiagBranchless kernel differs from RowMajor", name)
					}
				}
			}
		}
	}
}
