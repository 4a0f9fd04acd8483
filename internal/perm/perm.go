// Package perm implements permutation matrices, the storage format for
// semi-local LCS kernels (reduced sticky braids).
//
// A permutation matrix of order n has exactly one nonzero in every row and
// every column. Following the paper, a permutation matrix is stored as two
// index arrays of length n (row→column and column→row), so a matrix of
// order n occupies exactly 2n machine words.
//
// Throughout this repository row and column indices are 0-based, and the
// distribution (dominance-sum) orientation is
//
//	PΣ(i, j) = #{(r, c) : P(r, c) = 1, r ≥ i, c < j},
//
// for i, j ∈ [0 … n]; see package monge.
package perm

import (
	"fmt"
	"math/rand"
)

// None marks an absent nonzero in sub-permutation index arrays.
const None int32 = -1

// Permutation is a permutation matrix of order N stored as a row→column
// index array. The column→row view is materialized lazily by Inverse.
//
// The zero value is the empty permutation of order 0.
type Permutation struct {
	rowToCol []int32
}

// FromRowToCol wraps a row→column index array without validation.
func FromRowToCol(rowToCol []int32) Permutation {
	return Permutation{rowToCol: rowToCol}
}

// Identity returns the identity permutation of order n.
func Identity(n int) Permutation {
	r := make([]int32, n)
	for i := range r {
		r[i] = int32(i)
	}
	return Permutation{rowToCol: r}
}

// Reverse returns the order-reversing permutation of order n
// (row i ↦ column n-1-i), the kernel of a pair of fully mismatched
// length-1 strings generalized to order n.
func Reverse(n int) Permutation {
	r := make([]int32, n)
	for i := range r {
		r[i] = int32(n - 1 - i)
	}
	return Permutation{rowToCol: r}
}

// Random returns a uniformly random permutation of order n drawn from rng.
func Random(n int, rng *rand.Rand) Permutation {
	r := make([]int32, n)
	for i, v := range rng.Perm(n) {
		r[i] = int32(v)
	}
	return Permutation{rowToCol: r}
}

// Size returns the order of the permutation.
func (p Permutation) Size() int { return len(p.rowToCol) }

// Col returns the column of the nonzero in row i.
func (p Permutation) Col(i int) int { return int(p.rowToCol[i]) }

// RowToCol exposes the underlying row→column array. The caller must not
// modify it unless it owns the Permutation.
func (p Permutation) RowToCol() []int32 { return p.rowToCol }

// Inverse returns the inverse permutation (the transpose of the matrix),
// i.e. the column→row view.
func (p Permutation) Inverse() Permutation {
	inv := make([]int32, len(p.rowToCol))
	for i, c := range p.rowToCol {
		inv[c] = int32(i)
	}
	return Permutation{rowToCol: inv}
}

// ColToRow returns a freshly allocated column→row index array.
func (p Permutation) ColToRow() []int32 { return p.Inverse().rowToCol }

// Equal reports whether p and q are the same permutation.
func (p Permutation) Equal(q Permutation) bool {
	if len(p.rowToCol) != len(q.rowToCol) {
		return false
	}
	for i, c := range p.rowToCol {
		if c != q.rowToCol[i] {
			return false
		}
	}
	return true
}

// Validate checks that the stored array is a permutation of {0 … n-1}.
func (p Permutation) Validate() error {
	n := len(p.rowToCol)
	seen := make([]bool, n)
	for i, c := range p.rowToCol {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("perm: row %d maps to column %d, out of range [0,%d)", i, c, n)
		}
		if seen[c] {
			return fmt.Errorf("perm: column %d hit twice", c)
		}
		seen[c] = true
	}
	return nil
}

// Rotate180 returns the permutation rotated by 180°: nonzero (i, j) maps to
// (n-1-i, n-1-j). This realizes the flip of Theorem 3.5 of the paper,
// turning P(b,a) into P(a,b).
func (p Permutation) Rotate180() Permutation {
	n := len(p.rowToCol)
	r := make([]int32, n)
	for i, c := range p.rowToCol {
		r[n-1-i] = int32(n-1) - c
	}
	return Permutation{rowToCol: r}
}

// ApplyAfter returns the functional composition q∘p as index mappings:
// row i ↦ q(p(i)). (This is ordinary permutation-group composition, not
// sticky braid multiplication; see package steadyant for the latter.)
func (p Permutation) ApplyAfter(q Permutation) Permutation {
	if len(p.rowToCol) != len(q.rowToCol) {
		panic("perm: composing permutations of different order")
	}
	r := make([]int32, len(p.rowToCol))
	for i, c := range p.rowToCol {
		r[i] = q.rowToCol[c]
	}
	return Permutation{rowToCol: r}
}

// String renders small permutations as 0/1 matrices for debugging.
func (p Permutation) String() string {
	n := len(p.rowToCol)
	if n > 16 {
		return fmt.Sprintf("Permutation(order %d)", n)
	}
	buf := make([]byte, 0, n*(2*n+1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if int(p.rowToCol[i]) == j {
				buf = append(buf, '1', ' ')
			} else {
				buf = append(buf, '.', ' ')
			}
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
