// Algebraic oracle tests for sticky braid multiplication: associativity
// on random braid triples, neutrality of the identity, and composition
// against directly solved kernels (external test package: the oracle
// helpers import core, which imports steadyant).
package steadyant_test

import (
	"math/rand"
	"testing"

	"semilocal/internal/combing"
	"semilocal/internal/oracle"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// mults enumerates every multiplication entry point under test.
func mults() map[string]oracle.Mult {
	m := map[string]oracle.Mult{
		"combined": steadyant.Multiply,
		"parallel": func(p, q perm.Permutation) perm.Permutation {
			return steadyant.MultiplyParallel(p, q, steadyant.ParallelOptions{SwitchDepth: 3, Workers: 3})
		},
	}
	for _, v := range []steadyant.Variant{steadyant.Base, steadyant.Precalc, steadyant.Memory, steadyant.Combined} {
		v := v
		m[v.String()] = func(p, q perm.Permutation) perm.Permutation {
			return steadyant.MultiplyVariant(p, q, v)
		}
	}
	return m
}

// TestAssociativityOnRandomTriples drives every variant through the
// associativity check (which also compares each product against the
// naive min-plus oracle) on random braid triples of varied orders.
func TestAssociativityOnRandomTriples(t *testing.T) {
	for name, mult := range mults() {
		name, mult := name, mult
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// One source per parallel subtest: a shared *rand.Rand is a
			// data race.
			rng := rand.New(rand.NewSource(31))
			for _, n := range []int{1, 2, 3, 5, 17, 48, 96} {
				p := perm.Random(n, rng)
				q := perm.Random(n, rng)
				r := perm.Random(n, rng)
				if err := oracle.CheckAssociativity(p, q, r, mult); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

func TestIdentityIsNeutralForAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for name, mult := range mults() {
		for _, n := range []int{1, 7, 33, 80} {
			if err := oracle.CheckNeutral(perm.Random(n, rng), mult); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestStructuredTriples exercises associativity on the degenerate braids
// (identity, reversal) whose products collapse, where off-by-one bugs in
// the divide step like to hide.
func TestStructuredTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 2, 16, 49} {
		id, rev, rnd := perm.Identity(n), perm.Reverse(n), perm.Random(n, rng)
		for _, triple := range [][3]perm.Permutation{
			{id, id, id}, {rev, rev, rev}, {id, rev, rnd}, {rnd, id, rev}, {rev, rnd, id},
		} {
			if err := oracle.CheckAssociativity(triple[0], triple[1], triple[2], steadyant.Multiply); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

// TestComposeMatchesDirectKernel pins Theorem 3.4's composition to a
// directly solved kernel on the adversarial input families, split at
// several points of a.
func TestComposeMatchesDirectKernel(t *testing.T) {
	for _, pair := range oracle.AdversarialPairs() {
		a, b := pair.A, pair.B
		want := combing.RowMajor(a, b)
		for _, cut := range []int{0, len(a) / 2, len(a)} {
			k1 := combing.RowMajor(a[:cut], b)
			k2 := combing.RowMajor(a[cut:], b)
			got := steadyant.Compose(k1, k2, cut, len(a)-cut, len(b), steadyant.Multiply)
			if !got.Equal(want) {
				t.Fatalf("%s: composed kernel at cut %d differs", pair.Name, cut)
			}
		}
	}
}
