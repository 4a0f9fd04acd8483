package stream

import "semilocal/internal/steadyant"

// composer performs the b-axis kernel composition of Theorem 3.4 —
// flipped per Theorem 3.5, since the window grows along b — at order
// m = |a| rather than at the full order N = m+n1+n2, without
// allocating.
//
// The full-order formulation (internal/hybrid.composeB, and the test
// reference referenceComposeB) is
//
//	P(a, b₁b₂) = rot180( left ⊙ right ),
//	left  = I_{n2} ⊕ rot180(k1),   left(r)  = r                   for r < n2,
//	                               left(r)  = N−1−k1[N−1−r]       otherwise,
//	right = rot180(k2) ⊕ I_{n1},   right(j) = N2−1−k2[N2−1−j]     for j < N2,
//	                               right(j) = j                   otherwise,
//
// with k1 = P(a,b₁), k2 = P(a,b₂), N2 = m+n2. The two factors share the
// string a: left is the identity on [0, n2) and right is the identity
// on [N2, N), so only the m strands that cross the interface positions
// [n2, N2) can meet in both factors (Tiskin, arXiv 0707.3619, composes
// along one shared string the same way). Every other strand's image is
// the plain composition right(left(r)); the m interface strands form an
// order-m sticky braid product, multiplied in a retained
// steadyant.Workspace. A composition costs O(m log m + N) time and the
// retained scratch is O(m). The operands are never built as arrays:
// the rotations are fused into the index arithmetic, the interface
// columns are ranked by a counting pass over dst, and the product is
// un-rotated straight into dst (dst[N−1−r] = N−1−value). The stream
// differential suite pins bit-identity against the full-order product.
type composer struct {
	w    steadyant.Workspace
	rows []int32 // dst slots (N−1−r) of the interface rows, in increasing r
	cols []int32 // the interface columns, increasing
	p, q []int32 // the order-m operands; p receives the product
}

// grow ensures the interface scratch fits order m.
func (c *composer) grow(m int) {
	if cap(c.rows) >= m {
		return
	}
	c.rows = make([]int32, m)
	c.cols = make([]int32, m)
	c.p = make([]int32, m)
	c.q = make([]int32, m)
}

// composeB writes the kernel of (a, b1·b2) into dst, given the kernels
// k1 = P(a,b1) and k2 = P(a,b2) as row→column arrays; m = |a|,
// n1 = |b1|, n2 = |b2|, len(dst) = m+n1+n2. dst must not alias k1 or
// k2.
func (c *composer) composeB(k1, k2 []int32, m, n1, n2 int, dst []int32) {
	N := m + n1 + n2
	N1 := m + n1 // order of k1
	N2 := m + n2 // order of k2
	if len(k1) != N1 || len(k2) != N2 || len(dst) != N {
		panic("stream: composeB length mismatch")
	}
	c.grow(m)
	rows, cols, p, q := c.rows[:m], c.cols[:m], c.p[:m], c.q[:m]

	// Rank the interface columns right(n2+t) = N2−1−k2[m−1−t] (all
	// below N2) with a counting pass that marks them in dst[:N2].
	mark := dst[:N2]
	for i := range mark {
		mark[i] = -1
	}
	for t := 0; t < m; t++ {
		mark[int32(N2-1)-k2[t]] = 0
	}
	rank := int32(0)
	for col, v := range mark {
		if v == 0 {
			mark[col] = rank
			cols[rank] = int32(col)
			rank++
		}
	}
	for t := 0; t < m; t++ {
		q[t] = mark[int32(N2-1)-k2[m-1-t]]
	}

	// Rows r ≥ n2: with s = N−1−r, left(r) = N−1−k1[s] lies in the
	// interface exactly when k1[s] ≥ n1. Other rows pass through the
	// identity of right, so their un-rotated image is k1[s] itself.
	// Walking s downward visits r upward; the ranks are consumed, so
	// dst[:N1] is free to receive output.
	i := 0
	for s := N1 - 1; s >= 0; s-- {
		v := k1[s]
		if v < int32(n1) {
			dst[s] = v
			continue
		}
		rows[i] = int32(s)
		p[i] = int32(N1-1) - v
		i++
	}
	c.w.MultiplyInto(p, q, p)
	for i, s := range rows {
		dst[s] = int32(N-1) - cols[p[i]]
	}
	// Rows r < n2 pass through the identity of left: right(r) =
	// N2−1−k2[N2−1−r], un-rotated into dst[N−1−r].
	for r := 0; r < n2; r++ {
		dst[N-1-r] = int32(N-N2) + k2[N2-1-r]
	}
}
