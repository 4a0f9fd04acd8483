// Differential tests pinning the edit-distance reduction to the
// independent oracle DP, plus the contract tests for the reserved
// sentinel byte (external test package: internal/oracle imports
// editdist).
package editdist_test

import (
	"strings"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/editdist"
	"semilocal/internal/oracle"
)

// TestEditKernelMatchesOracle checks, on every adversarial pair, that
// window distances and sampled substring distances from the blown-up
// kernel agree with direct Levenshtein DP on the substrings.
func TestEditKernelMatchesOracle(t *testing.T) {
	for _, pair := range oracle.AdversarialPairs() {
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			a, b := pair.A, pair.B
			k, err := editdist.Solve(a, b, core.Config{Algorithm: core.Hybrid, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := k.Distance(), oracle.EditDistance(a, b); got != want {
				t.Fatalf("Distance = %d, want %d", got, want)
			}
			n := len(b)
			for _, width := range []int{0, 1, n / 2, n} {
				if width < 0 || width > n {
					continue
				}
				for l, got := range k.WindowDistances(width) {
					if want := oracle.EditDistance(a, b[l:l+width]); got != want {
						t.Fatalf("WindowDistances(%d)[%d] = %d, want %d", width, l, got, want)
					}
				}
			}
		})
	}
}

// TestSentinelContract documents the reserved byte of the blow-up
// reduction: inputs containing 0xff are rejected with a diagnostic
// naming the byte, while every other byte value — including the
// adjacent 0xfe — is accepted.
func TestSentinelContract(t *testing.T) {
	if editdist.Sentinel != 0xff {
		t.Fatalf("Sentinel = %#x, want 0xff", editdist.Sentinel)
	}
	for _, bad := range [][2][]byte{
		{{0xff}, {'x'}},
		{{'x'}, {'a', 0xff, 'b'}},
		{{0xff}, {0xff}},
	} {
		_, err := editdist.Solve(bad[0], bad[1], core.Config{})
		if err == nil {
			t.Fatalf("Solve(%v, %v) accepted a sentinel byte", bad[0], bad[1])
		}
		if !strings.Contains(err.Error(), "0xff") {
			t.Fatalf("error %q does not name the reserved byte", err)
		}
	}
	// The full remaining byte range is usable.
	a := []byte{0x00, 0x01, 0x7f, 0x80, 0xfe}
	b := []byte{0xfe, 0x80, 0x00}
	k, err := editdist.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatalf("non-sentinel bytes rejected: %v", err)
	}
	if got, want := k.Distance(), oracle.EditDistance(a, b); got != want {
		t.Fatalf("Distance = %d, want %d", got, want)
	}
}

// FuzzEditWindows fuzzes the reduction differentially: inputs with the
// sentinel must be rejected, everything else must agree with direct DP
// on the global distance and a window sweep.
func FuzzEditWindows(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff}, []byte("a"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		k, err := editdist.Solve(a, b, core.Config{Algorithm: core.AntidiagBranchless})
		hasSentinel := false
		for _, s := range [][]byte{a, b} {
			for _, c := range s {
				if c == editdist.Sentinel {
					hasSentinel = true
				}
			}
		}
		if hasSentinel {
			if err == nil {
				t.Fatal("sentinel input accepted")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, want := k.Distance(), oracle.EditDistance(a, b); got != want {
			t.Fatalf("Distance = %d, want %d", got, want)
		}
		width := len(b) / 2
		for l, got := range k.WindowDistances(width) {
			if want := oracle.EditDistance(a, b[l:l+width]); got != want {
				t.Fatalf("WindowDistances(%d)[%d] = %d, want %d", width, l, got, want)
			}
		}
	})
}
