// Differential tests pinning the recursive, hybrid and grid-reduction
// algorithms to the quadratic oracle on the adversarial input families
// (external test package: internal/oracle imports core, which imports
// hybrid).
package hybrid_test

import (
	"fmt"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/hybrid"
	"semilocal/internal/oracle"
	"semilocal/internal/perm"
)

func hybridConfigs() map[string]func(a, b []byte) perm.Permutation {
	out := map[string]func(a, b []byte) perm.Permutation{
		"recursive": func(a, b []byte) perm.Permutation {
			return hybrid.Recursive(a, b, nil)
		},
	}
	for _, depth := range []int{0, 1, 2, 5} {
		for _, workers := range []int{0, 3} {
			depth, workers := depth, workers
			name := fmt.Sprintf("hybrid/d%d/w%d", depth, workers)
			out[name] = func(a, b []byte) perm.Permutation {
				return hybrid.Hybrid(a, b, hybrid.Options{Depth: depth, Workers: workers})
			}
		}
	}
	for _, tiles := range []int{0, 1, 2, 5} {
		for _, workers := range []int{0, 2} {
			for _, use16 := range []bool{false, true} {
				tiles, workers, use16 := tiles, workers, use16
				name := fmt.Sprintf("grid/t%d/w%d/16=%v", tiles, workers, use16)
				out[name] = func(a, b []byte) perm.Permutation {
					return hybrid.GridReduction(a, b, hybrid.GridOptions{
						Tiles: tiles, Workers: workers, Use16: use16,
					})
				}
			}
		}
	}
	return out
}

func TestHybridFamilyMatchesOracle(t *testing.T) {
	configs := hybridConfigs()
	for _, pair := range oracle.AdversarialPairs() {
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			a, b := pair.A, pair.B
			ref, err := core.Solve(a, b, core.Config{Algorithm: core.RowMajor})
			if err != nil {
				t.Fatal(err)
			}
			for name, solve := range configs {
				got := solve(a, b)
				if err := oracle.CheckPermutation(got, len(a)+len(b)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !got.Equal(ref.Permutation()) {
					t.Fatalf("%s: kernel differs from reference", name)
				}
			}
			// One full oracle validation per pair (all configurations
			// above are already pinned to this kernel).
			if err := oracle.CheckKernel(ref, a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
}
