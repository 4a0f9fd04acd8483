//go:build !race

package combing

import (
	"math/rand"
	"testing"

	"semilocal/internal/benchkit"
)

// TestAntidiagSWARAllocs pins the anti-diagonal combs' allocations at
// the stream leaf shape (an m = 64 pattern against a 256-byte chunk).
// SWAR makes one backing array for the four lane arrays and the kernel
// itself, never more than the 32-bit branchless loop it replaces on that
// path. The 32-bit and 16-bit combs make the track header, the reversed
// pattern, one track array, the kernel and nothing per diagonal: the
// driver takes the cell loop as a method expression, which allocates
// nothing. Like every AllocsPerRun gate, this only measures without the
// race detector.
func TestAntidiagSWARAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a, b := randString(rng, 64, 4), randString(rng, 256, 4)
	base := testing.AllocsPerRun(50, func() { Antidiag(a, b, Options{Branchless: true}) })
	benchkit.AssertMaxAllocs(t, "AntidiagSWAR 64x256", 2, 50, func() { AntidiagSWAR(a, b, Options{}) })
	benchkit.AssertMaxAllocs(t, "AntidiagSWAR 64x256 vs the 32-bit loop", base, 50, func() { AntidiagSWAR(a, b, Options{}) })
	benchkit.AssertMaxAllocs(t, "Antidiag 64x256", 4, 50, func() { Antidiag(a, b, Options{Branchless: true}) })
	benchkit.AssertMaxAllocs(t, "Antidiag16 64x256", 4, 50, func() { Antidiag16(a, b, Options{}) })
}
