package combing

import (
	"fmt"

	"semilocal/internal/perm"
)

// Max16 is the largest m+n for which 16-bit strand indices are usable.
const Max16 = 1 << 16

// Fits16 reports whether a problem of size m×n can use 16-bit strand
// indices: the m+n strand start tracks must be addressable in a uint16.
// This is THE eligibility decision — the 16-bit kernels, the
// grid-reduction tile splitter and benchsuite's ablations all route
// through it rather than re-deriving the comparison, so the
// boundary (m+n == Max16 is still eligible; one more strand is not)
// cannot drift between callers.
func Fits16(m, n int) bool { return m+n <= Max16 }

// Antidiag16 is the anti-diagonal branchless combing with 16-bit strand
// indices, the paper's reduced-precision optimization for m+n ≤ 2¹⁶:
// halving the element size doubles the number of strand indices per
// cache line (and, in the paper's AVX setting, per SIMD vector).
// Parallelism follows opt as in Antidiag.
func Antidiag16(a, b []byte, opt Options) perm.Permutation {
	m, n := len(a), len(b)
	if !Fits16(m, n) {
		panic(fmt.Sprintf("combing: Antidiag16 needs m+n ≤ %d, got %d", Max16, m+n))
	}
	if m == 0 || n == 0 {
		return RowMajor(a, b)
	}
	if m > n {
		return Antidiag16(b, a, opt).Rotate180()
	}
	return drive(newState16(a, b), m, n, &opt, 1, (*state16).inner, (*state16).finish)
}

// state16 is state with 16-bit strand indices.
type state16 struct {
	aRev []byte
	b    []byte
	hs   []uint16
	vs   []uint16
}

func newState16(a, b []byte) *state16 {
	hs, vs := startTracks[uint16](len(a), len(b))
	return &state16{aRev: reversed(a), b: b, hs: hs, vs: vs}
}

// inner is the branchless combing step on 16-bit strand indices. The
// unsigned h > v test is computed in 32-bit arithmetic to avoid wraparound.
func (st *state16) inner(lo, hi, hBase, vBase int) {
	hs := st.hs[hBase+lo : hBase+hi]
	vs := st.vs[vBase+lo : vBase+hi]
	ar := st.aRev[hBase+lo : hBase+hi]
	bb := st.b[vBase+lo : vBase+hi]
	for k := range hs {
		h, v := hs[k], vs[k]
		x := int32(ar[k]) ^ int32(bb[k])
		eq := ((x - 1) >> 31) & 1
		gt := ((int32(v) - int32(h)) >> 31) & 1
		p := uint16(eq | gt)
		keep, take := p-1, -p
		hs[k] = (h & keep) | (v & take)
		vs[k] = (v & keep) | (h & take)
	}
}

func (st *state16) finish(m, n int) perm.Permutation { return finishKernel(st.hs, st.vs, m, n) }
