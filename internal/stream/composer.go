package stream

import "semilocal/internal/steadyant"

// composer performs the b-axis kernel composition of Theorem 3.4 —
// flipped per Theorem 3.5, since the window grows along b — without
// allocating: the two direct-sum operands are built in retained
// scratch with the 180° rotations fused into the index arithmetic, the
// braid multiplication runs in a retained steadyant.Workspace, and the
// product is un-rotated in place in the caller's destination buffer.
//
// The reference formulation (internal/hybrid.composeB) is
//
//	P(a, b₁b₂) = rot180( (I_{n2} ⊕ rot180(k1)) ⊙ (rot180(k2) ⊕ I_{n1}) )
//
// with k1 = P(a,b₁), k2 = P(a,b₂); the stream differential suite
// pins bit-identity against it.
type composer struct {
	w           steadyant.Workspace
	left, right []int32
}

// grow ensures the operand scratch fits order n.
func (c *composer) grow(n int) {
	if cap(c.left) >= n {
		return
	}
	c.left = make([]int32, n)
	c.right = make([]int32, n)
}

// warm pre-grows every retained buffer for compositions up to order n,
// so steady-state calls at or below it allocate nothing.
func (c *composer) warm(n int) {
	c.grow(n)
	c.w.Warm(n)
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
	c.grow(N)
	left, right := c.left[:N], c.right[:N]
	// left = I_{n2} ⊕ rot180(k1): rot180(k1)[i] = N1-1 - k1[N1-1-i],
	// shifted up by the identity block.
	for i := 0; i < n2; i++ {
		left[i] = int32(i)
	}
	for i := 0; i < N1; i++ {
		left[n2+i] = int32(n2+N1-1) - k1[N1-1-i]
	}
	// right = rot180(k2) ⊕ I_{n1}.
	for i := 0; i < N2; i++ {
		right[i] = int32(N2-1) - k2[N2-1-i]
	}
	for i := 0; i < n1; i++ {
		right[N2+i] = int32(N2 + i)
	}
	c.w.MultiplyInto(left, right, dst)
	// Un-rotate the product in place: res[i] = N-1 - product[N-1-i].
	for i, j := 0, N-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = int32(N-1)-dst[j], int32(N-1)-dst[i]
	}
	if N%2 == 1 {
		mid := N / 2
		dst[mid] = int32(N-1) - dst[mid]
	}
}
