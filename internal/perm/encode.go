package perm

import "fmt"

// MaxPackedOrder is the largest permutation order that Pack can encode.
// A packed permutation stores one 4-bit column index (tetrade) per row in
// a 32-bit word, as in the paper's precalc optimization: the matrix is the
// top-left corner of an 8×8 permutation whose k-th tetrade is the column
// of the nonzero in row k.
const MaxPackedOrder = 8

// Pack encodes a permutation of order ≤ 8 into a 32-bit word, one tetrade
// per row. Rows beyond the order are encoded as the identity so that equal
// permutations of equal order pack equally.
func Pack(p Permutation) uint32 {
	n := p.Size()
	if n > MaxPackedOrder {
		panic(fmt.Sprintf("perm: cannot pack order %d > %d", n, MaxPackedOrder))
	}
	var w uint32
	for i := 0; i < n; i++ {
		w |= uint32(p.rowToCol[i]) << (4 * i)
	}
	for i := n; i < MaxPackedOrder; i++ {
		w |= uint32(i) << (4 * i)
	}
	return w
}

// All enumerates every permutation of order n in lexicographic order of
// the row→column array, calling fn for each. It is used to build the
// precalc table and by exhaustive tests. n must be small (n! calls).
func All(n int, fn func(Permutation)) {
	idx := make([]int32, n)
	used := make([]bool, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			cp := make([]int32, n)
			copy(cp, idx)
			fn(Permutation{rowToCol: cp})
			return
		}
		for c := 0; c < n; c++ {
			if used[c] {
				continue
			}
			used[c] = true
			idx[pos] = int32(c)
			rec(pos + 1)
			used[c] = false
		}
	}
	rec(0)
}
