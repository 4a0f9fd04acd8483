// Package hybrid implements the divide-and-conquer semi-local LCS
// algorithms of the paper: recursive combing (Listing 3), the hybrid
// combining recursion with iterative combing below a threshold depth
// (Listing 6), and the optimized recursion-free grid-reduction hybrid
// (Listing 7).
//
// All algorithms split the LCS grid, solve sub-grids independently (in
// parallel where requested), and compose the sub-kernels with sticky
// braid multiplication. Splitting string a (a horizontal grid cut) uses
// Theorem 3.4 directly; splitting string b uses the flip of Theorem 3.5:
// P(a,b) is the 180° rotation of P(b,a).
package hybrid

import (
	"semilocal/internal/combing"
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// product is a sticky braid multiplication: steadyant.ObservedMult of
// the call's recorder, built once per Recursive, Hybrid or
// GridReduction call and shared by every composition in it.
type product = func(p, q perm.Permutation) perm.Permutation

// composeA glues the kernels of (a', b) and (a”, b) into the kernel of
// (a'a”, b); m1, m2 are the lengths of a', a”.
func composeA(k1, k2 perm.Permutation, m1, m2, n int, mult product) perm.Permutation {
	return steadyant.Compose(k1, k2, m1, m2, n, mult)
}

// composeB glues the kernels of (a, b') and (a, b”) into the kernel of
// (a, b'b”): flip both to the transposed problem, compose along the
// first string, flip back.
func composeB(k1, k2 perm.Permutation, m, n1, n2 int, mult product) perm.Permutation {
	p := steadyant.Compose(k1.Rotate180(), k2.Rotate180(), n1, n2, m, mult)
	return p.Rotate180()
}

// Recursive computes the kernel by pure recursive combing (Listing 3):
// the grid is halved along its longer string down to single characters,
// whose kernels are the identity (match) or the order-2 reversal
// (mismatch), and the halves are composed by braid multiplication. rec
// receives the compositions' spans and counters; nil disables them.
func Recursive(a, b []byte, rec *obs.Recorder) perm.Permutation {
	return recursive(a, b, steadyant.ObservedMult(rec))
}

func recursive(a, b []byte, mult product) perm.Permutation {
	m, n := len(a), len(b)
	switch {
	case m == 0 || n == 0:
		return combing.RowMajor(a, b)
	case m == 1 && n == 1:
		if a[0] == b[0] {
			return perm.Identity(2)
		}
		return perm.Reverse(2)
	case m >= n:
		cut := m / 2
		l := recursive(a[:cut], b, mult)
		r := recursive(a[cut:], b, mult)
		return composeA(l, r, cut, m-cut, n, mult)
	default:
		cut := n / 2
		l := recursive(a, b[:cut], mult)
		r := recursive(a, b[cut:], mult)
		return composeB(l, r, m, cut, n-cut, mult)
	}
}

// Options configure Hybrid (Listing 6).
type Options struct {
	// Depth is the number of recursion levels before switching to
	// iterative combing. 0 is pure iterative combing; the paper's
	// Figure 6 sweeps this tradeoff.
	Depth int
	// Workers bounds concurrently executing recursion branches (the
	// paper's coarse-grained parallelism). ≤ 1 is sequential.
	Workers int
	// Rec receives stage timings and counters from the leaf combing and
	// the compositions; nil disables instrumentation.
	Rec *obs.Recorder
}

// Hybrid computes the kernel by recursive splitting down to the given
// depth and branchless iterative combing below it (Listing 6).
// Sub-problems at the same recursion level run as parallel tasks when
// opt.Workers > 1.
func Hybrid(a, b []byte, opt Options) perm.Permutation {
	var lim *parallel.Limiter
	if opt.Workers > 1 {
		lim = parallel.NewLimiter(opt.Workers - 1)
	}
	return hybridRec(a, b, opt.Depth, lim, opt.Rec, steadyant.ObservedMult(opt.Rec))
}

func hybridRec(a, b []byte, depth int, lim *parallel.Limiter, rec *obs.Recorder, mult product) perm.Permutation {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return combing.RowMajor(a, b)
	}
	if depth <= 0 || m+n <= 4 {
		return combing.Antidiag(a, b, combing.Options{Branchless: true, Rec: rec})
	}
	var l, r perm.Permutation
	if m >= n {
		cut := m / 2
		lim.Do(
			func() { l = hybridRec(a[:cut], b, depth-1, lim, rec, mult) },
			func() { r = hybridRec(a[cut:], b, depth-1, lim, rec, mult) },
		)
		return composeA(l, r, cut, m-cut, n, mult)
	}
	cut := n / 2
	lim.Do(
		func() { l = hybridRec(a, b[:cut], depth-1, lim, rec, mult) },
		func() { r = hybridRec(a, b[cut:], depth-1, lim, rec, mult) },
	)
	return composeB(l, r, m, cut, n-cut, mult)
}
