// Differential tests pinning every combing variant to the quadratic
// oracle (external test package: internal/oracle imports core, which
// imports combing).
package combing_test

import (
	"testing"

	"semilocal/internal/combing"
	"semilocal/internal/core"
	"semilocal/internal/oracle"
	"semilocal/internal/perm"
)

// variants enumerates every combing entry point and inner-loop select
// form, including parallel splits forced down to one-element chunks.
func variants() map[string]func(a, b []byte) perm.Permutation {
	return map[string]func(a, b []byte) perm.Permutation{
		"rowmajor": combing.RowMajor,
		"antidiag": func(a, b []byte) perm.Permutation {
			return combing.Antidiag(a, b, combing.Options{})
		},
		"antidiag/branchless": func(a, b []byte) perm.Permutation {
			return combing.Antidiag(a, b, combing.Options{Branchless: true})
		},
		"antidiag/arithmetic": func(a, b []byte) perm.Permutation {
			return combing.Antidiag(a, b, combing.Options{Branchless: true, ArithmeticSelect: true})
		},
		"antidiag/minmax": func(a, b []byte) perm.Permutation {
			return combing.Antidiag(a, b, combing.Options{Branchless: true, MinMaxSelect: true})
		},
		"antidiag/parallel": func(a, b []byte) perm.Permutation {
			return combing.Antidiag(a, b, combing.Options{Workers: 3, MinChunk: 1})
		},
		"antidiag/parallel-branchless": func(a, b []byte) perm.Permutation {
			return combing.Antidiag(a, b, combing.Options{Workers: 2, MinChunk: 1, Branchless: true})
		},
		"swar": func(a, b []byte) perm.Permutation {
			return combing.AntidiagSWAR(a, b, combing.Options{})
		},
		"swar/parallel": func(a, b []byte) perm.Permutation {
			return combing.AntidiagSWAR(a, b, combing.Options{Workers: 3, MinChunk: 1})
		},
		"loadbalanced": func(a, b []byte) perm.Permutation {
			return combing.LoadBalanced(a, b, combing.Options{Branchless: true})
		},
		"loadbalanced/parallel": func(a, b []byte) perm.Permutation {
			return combing.LoadBalanced(a, b, combing.Options{Workers: 2, MinChunk: 1})
		},
	}
}

func TestCombingVariantsMatchOracle(t *testing.T) {
	for _, pair := range oracle.AdversarialPairs() {
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			t.Parallel()
			a, b := pair.A, pair.B
			ref := combing.RowMajor(a, b)
			if err := oracle.CheckKernel(core.NewKernel(ref, len(a), len(b)), a, b); err != nil {
				t.Fatal(err)
			}
			for name, solve := range variants() {
				if got := solve(a, b); !got.Equal(ref) {
					t.Fatalf("%s kernel differs from row-major", name)
				}
			}
			if len(a)+len(b) <= combing.Max16 {
				if got := combing.Antidiag16(a, b, combing.Options{Branchless: true}); !got.Equal(ref) {
					t.Fatal("Antidiag16 kernel differs")
				}
			}
		})
	}
}

// TestCombingFlipTheorem checks the metamorphic flip property of
// Theorem 3.5 on every adversarial pair: P(a,b) is P(b,a) rotated 180°.
func TestCombingFlipTheorem(t *testing.T) {
	for _, pair := range oracle.AdversarialPairs() {
		kab := combing.RowMajor(pair.A, pair.B)
		kba := combing.RowMajor(pair.B, pair.A)
		if err := oracle.CheckFlip(kab, kba); err != nil {
			t.Fatalf("%s: %v", pair.Name, err)
		}
	}
}

// TestScoreFromKernelMatchesOracle pins the kernel score extraction to
// the oracle DP on the adversarial families.
func TestScoreFromKernelMatchesOracle(t *testing.T) {
	for _, pair := range oracle.AdversarialPairs() {
		k := combing.RowMajor(pair.A, pair.B)
		if got, want := combing.ScoreFromKernel(k, len(pair.A), len(pair.B)), oracle.Score(pair.A, pair.B); got != want {
			t.Fatalf("%s: score %d, want %d", pair.Name, got, want)
		}
	}
}
