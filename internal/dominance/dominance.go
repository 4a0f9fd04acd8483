// Package dominance provides static 2-D dominance counting over a
// permutation: given values val[0…n) forming a permutation of {0…n-1},
// CountLess(lo, hi, v) returns #{p ∈ [lo,hi) : val[p] < v} in O(log n)
// time after O(n log n) preprocessing.
//
// This is the range-counting structure the paper's §3 refers to for
// accessing arbitrary entries of the semi-local LCS matrix H through its
// kernel: H(i,j) = j + m - i - #{(s,e) ∈ P : s ≥ i, e < j}, and the
// count is CountLess(i, n, j) over the kernel's row→column array.
//
// The implementation is a wavelet tree stored level by level: at level k
// the sequence is partitioned by bit k (from the most significant down),
// and a cumulative rank array lets prefix ranks be computed in O(1) per
// level. The tree is Levels(n) int32 rank arrays, about ⌈log₂n⌉ times
// the indexed sequence, so a caller that queries a sequence only a few
// times is better off counting directly: core.Kernel scans until its
// scan work reaches the build cost n·Levels(n), and only then builds.
package dominance

import "math/bits"

// Tree is a wavelet tree over a permutation.
type Tree struct {
	n      int
	levels []level
}

type level struct {
	// rank0[p] = number of zero-bit elements among the first p positions
	// of this level's sequence.
	rank0 []int32
	// zeros = total number of zero-bit elements at this level.
	zeros int32
}

// New builds the tree over val, which must be a permutation of {0…n-1}
// (more generally, any int32 sequence with values in [0, n) works).
func New(val []int32) *Tree {
	n := len(val)
	t := &Tree{n: n}
	if n == 0 {
		return t
	}
	cur := make([]int32, n)
	next := make([]int32, n)
	copy(cur, val)
	for b := Levels(n) - 1; b >= 0; b-- {
		lv := level{rank0: make([]int32, n+1)}
		mask := int32(1) << b
		lo, hi := 0, 0
		// First pass: count zeros to place ones after them.
		for _, v := range cur {
			if v&mask == 0 {
				lo++
			}
		}
		lv.zeros = int32(lo)
		oneBase := lo
		lo = 0
		for p, v := range cur {
			if v&mask == 0 {
				next[lo] = v
				lo++
			} else {
				next[hi+oneBase] = v
				hi++
			}
			lv.rank0[p+1] = int32(lo)
		}
		t.levels = append(t.levels, lv)
		cur, next = next, cur
	}
	return t
}

// Levels returns the number of levels of a tree over n values,
// ⌈log₂n⌉ (0 for n ≤ 1): one rank array and one O(n) pass each.
func Levels(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// SizeBytes returns, without building anything, the Bytes a tree over
// n values occupies, so callers can reserve memory for a tree before it
// exists.
func SizeBytes(n int) int {
	return Levels(n) * 4 * (n + 2)
}

// Size returns the length of the indexed sequence.
func (t *Tree) Size() int { return t.n }

// CountLess returns #{p ∈ [lo, hi) : val[p] < v}. Ranges are clamped to
// [0, n]; v outside [0, n] is clamped likewise.
func (t *Tree) CountLess(lo, hi int, v int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if lo >= hi || v <= 0 {
		return 0
	}
	if v >= t.n {
		if v > t.n {
			v = t.n
		}
		// Still fall through: counting values < n over a permutation of
		// {0…n-1} is just the range length.
		return hi - lo
	}
	count := 0
	l, h := int32(lo), int32(hi)
	for b := range t.levels {
		lv := &t.levels[b]
		bit := (v >> (len(t.levels) - 1 - b)) & 1
		l0 := lv.rank0[l]
		h0 := lv.rank0[h]
		if bit == 0 {
			// v's path goes into the zero child; no element of the one
			// child is < v at this prefix.
			l, h = l0, h0
		} else {
			// All zero-child elements in range are < v.
			count += int(h0 - l0)
			l = (l - l0) + lv.zeros
			h = (h - h0) + lv.zeros
		}
		if l >= h {
			return count
		}
	}
	return count
}

// CountDominated returns #{p ∈ [lo, n) : val[p] < v}, the suffix query
// used by kernel H-matrix access.
func (t *Tree) CountDominated(lo, v int) int {
	return t.CountLess(lo, t.n, v)
}
