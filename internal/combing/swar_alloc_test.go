//go:build !race

package combing

import (
	"math/rand"
	"testing"

	"semilocal/internal/benchkit"
)

// TestAntidiagSWARAllocs pins the SWAR comb's allocations at the stream
// leaf shape (an m = 64 pattern against a 256-byte chunk): one backing
// array for the four lane arrays and the kernel itself, never more than
// the 32-bit branchless loop it replaces on that path. Like every
// AllocsPerRun gate, this only measures without the race detector.
func TestAntidiagSWARAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a, b := randString(rng, 64, 4), randString(rng, 256, 4)
	base := testing.AllocsPerRun(50, func() { Antidiag(a, b, Options{Branchless: true}) })
	benchkit.AssertMaxAllocs(t, "AntidiagSWAR 64x256", 2, 50, func() { AntidiagSWAR(a, b, Options{}) })
	benchkit.AssertMaxAllocs(t, "AntidiagSWAR 64x256 vs the 32-bit loop", base, 50, func() { AntidiagSWAR(a, b, Options{}) })
}
