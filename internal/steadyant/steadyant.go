// Package steadyant implements sticky braid (Demazure) multiplication of
// semi-local LCS kernels: the O(n log n) divide-and-conquer "steady ant"
// algorithm of Tiskin (Listing 2 of the paper), its two sequential
// optimizations — precalc (products of all small permutations precomputed
// into packed machine words) and memory (arena preallocation replacing
// per-level allocation) — and the coarse-grained parallel version of
// Listing 5.
//
// The multiplication computed here is the distance product of the inputs'
// distribution matrices: see package monge for the O(n³) definition used
// as this package's correctness oracle.
package steadyant

import (
	"fmt"

	"semilocal/internal/perm"
)

// Variant selects which combination of the paper's sequential
// optimizations a multiplication uses (Figure 4a compares them).
type Variant int

const (
	// Base is the unoptimized steady ant: recursion to order 1,
	// allocating fresh index arrays at every level.
	Base Variant = iota
	// Precalc cuts the bottom of the recursion by looking up products of
	// permutations of order ≤ 5 in a precomputed table.
	Precalc
	// Memory preallocates all permutation storage in two flip-flopping
	// arena blocks, exactly 8N words for the matrices.
	Memory
	// Combined applies both Precalc and Memory.
	Combined
)

func (v Variant) String() string {
	switch v {
	case Base:
		return "base"
	case Precalc:
		return "precalc"
	case Memory:
		return "memory"
	case Combined:
		return "combined"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// precalcOrder is the largest order resolved by table lookup: the paper
// precomputes all (5!)² = 14400 products of 5×5 permutation matrices (and
// implicitly of all smaller ones, which pad to the same packed keys).
const precalcOrder = 5

// MaxBase is the largest recursion cut-off order MultiplyWithBase
// accepts — the precalc table's order.
const MaxBase = precalcOrder

// Multiply returns the sticky braid product of p and q using both
// sequential optimizations (the paper's "combined" configuration). The
// inputs must have equal order.
func Multiply(p, q perm.Permutation) perm.Permutation {
	return MultiplyVariant(p, q, Combined)
}

// MultiplyVariant returns the sticky braid product of p and q using the
// given optimization variant.
func MultiplyVariant(p, q perm.Permutation, v Variant) perm.Permutation {
	n := p.Size()
	if q.Size() != n {
		panic(fmt.Sprintf("steadyant: multiplying orders %d and %d", n, q.Size()))
	}
	if n == 0 {
		return perm.Identity(0)
	}
	switch v {
	case Base:
		return perm.FromRowToCol(multiplyAlloc(p.RowToCol(), q.RowToCol(), 1))
	case Precalc:
		return perm.FromRowToCol(multiplyAlloc(p.RowToCol(), q.RowToCol(), precalcOrder))
	case Memory:
		return multiplyArena(p, q, 1)
	case Combined:
		return multiplyArena(p, q, precalcOrder)
	}
	panic(fmt.Sprintf("steadyant: unknown variant %d", int(v)))
}

// multiplyAlloc is the allocating recursion: split, recurse, expand, ant.
// Orders ≤ base are resolved directly (base == 1 recurses all the way
// down; base == precalcOrder uses the lookup table).
func multiplyAlloc(p, q []int32, base int) []int32 {
	n := len(p)
	if n <= base {
		return multiplySmall(p, q)
	}
	h := n / 2

	// Split P vertically by column value; the row maps record which
	// original rows survive in each half.
	pLo := make([]int32, h)
	pHi := make([]int32, n-h)
	loRowsP := make([]int32, h)
	hiRowsP := make([]int32, n-h)
	splitP(p, h, pLo, pHi, loRowsP, hiRowsP)

	// Split Q horizontally by row; the column maps record which original
	// columns survive in each half, and colRank compresses column values.
	qLo := make([]int32, h)
	qHi := make([]int32, n-h)
	loColsQ := make([]int32, h)
	hiColsQ := make([]int32, n-h)
	colRank := make([]int32, n)
	splitQ(q, h, qLo, qHi, loColsQ, hiColsQ, colRank)

	rLo := multiplyAlloc(pLo, qLo, base)
	rHi := multiplyAlloc(pHi, qHi, base)

	// Expand the sub-results back to order-n sub-permutation matrices.
	loR2C := make([]int32, n)
	loC2R := make([]int32, n)
	hiR2C := make([]int32, n)
	hiC2R := make([]int32, n)
	expand(rLo, loRowsP, loColsQ, loR2C, loC2R)
	expand(rHi, hiRowsP, hiColsQ, hiR2C, hiC2R)

	res := make([]int32, n)
	antPassage(loR2C, loC2R, hiR2C, hiC2R, res)
	return res
}

// splitP writes the low and high column halves of P, compressing rows.
// Columns < h keep their values; columns ≥ h shift down by h.
func splitP(p []int32, h int, pLo, pHi, loRows, hiRows []int32) {
	lo, hi := 0, 0
	for r, c := range p {
		if int(c) < h {
			pLo[lo] = c
			loRows[lo] = int32(r)
			lo++
		} else {
			pHi[hi] = c - int32(h)
			hiRows[hi] = int32(r)
			hi++
		}
	}
}

// splitQ writes the low and high row halves of Q, compressing columns.
// colRank is scratch of length n receiving each column's compressed
// index within its half.
func splitQ(q []int32, h int, qLo, qHi, loCols, hiCols, colRank []int32) {
	n := len(q)
	// Which columns belong to the low half (their nonzero is in a row < h)?
	for i := range colRank {
		colRank[i] = perm.None
	}
	for r := 0; r < h; r++ {
		colRank[q[r]] = 0 // mark as low
	}
	lo, hi := 0, 0
	for c := 0; c < n; c++ {
		if colRank[c] == 0 {
			loCols[lo] = int32(c)
			colRank[c] = int32(lo)
			lo++
		} else {
			hiCols[hi] = int32(c)
			colRank[c] = int32(hi)
			hi++
		}
	}
	for r := 0; r < h; r++ {
		qLo[r] = colRank[q[r]]
	}
	for r := h; r < n; r++ {
		qHi[r-h] = colRank[q[r]]
	}
}

// expand scatters a compressed sub-result back into order-n row→column
// and column→row arrays (perm.None marks absent rows/columns).
func expand(r, rows, cols, r2c, c2r []int32) {
	for i := range r2c {
		r2c[i] = perm.None
		c2r[i] = perm.None
	}
	for k, v := range r {
		row, col := rows[k], cols[v]
		r2c[row] = col
		c2r[col] = row
	}
}

// MultiplyWithBase runs the allocating steady ant switching to direct
// resolution at the given order (1 ≤ base ≤ 5). It exposes the precalc
// cut-off depth for ablation benchmarks; Multiply's default base is 5.
func MultiplyWithBase(p, q perm.Permutation, base int) perm.Permutation {
	if base < 1 || base > precalcOrder {
		panic(fmt.Sprintf("steadyant: base %d out of range [1,%d]", base, precalcOrder))
	}
	n := p.Size()
	if q.Size() != n {
		panic(fmt.Sprintf("steadyant: multiplying orders %d and %d", n, q.Size()))
	}
	if n == 0 {
		return perm.Identity(0)
	}
	return perm.FromRowToCol(multiplyAlloc(p.RowToCol(), q.RowToCol(), base))
}
