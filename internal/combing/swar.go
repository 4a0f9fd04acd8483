package combing

import (
	"encoding/binary"
	"fmt"

	"semilocal/internal/perm"
)

// MaxSWAR is the largest m+n for which AntidiagSWAR's four-lane cell
// update is exact: every strand index must stay below 2¹⁵ so that the
// top bit of each 16-bit lane is free to act as a guard bit.
const MaxSWAR = 1 << 15

// FitsSWAR reports whether a problem of size m×n can be combed by
// AntidiagSWAR. Like Fits16 it is the single eligibility decision:
// core's AntidiagBranchless route, the tests and benchsuite's ablation
// all ask it, so the boundary (m+n == MaxSWAR is still eligible; one
// more strand is not) cannot drift between callers.
func FitsSWAR(m, n int) bool { return m+n <= MaxSWAR }

// Per-lane constants of the SWAR cell update: the guard bit of every
// 16-bit lane, and 2¹⁵−1 in every lane.
const (
	laneHigh  = 0x8000_8000_8000_8000
	laneBelow = 0x7FFF_7FFF_7FFF_7FFF
)

// AntidiagSWAR is the branchless anti-diagonal combing of Antidiag with
// the cell update run on four cells at once — the portable analog of the
// paper's AVX2 lanes (SIMD within a register). Strand indices and
// characters are stored as 16-bit little-endian lanes; each unaligned
// uint64 load brings four consecutive cells of an anti-diagonal, whose
// comparators are independent. With H = 0x8000 and L = 0x0001 in every
// lane and x = a ⊕ b,
//
//	gt   = ((h|H) − v − L) & H                  (lane top bit: h > v)
//	ne   = ((x|H) − L) & H                      (lane top bit: a ≠ b)
//	mask = (((^ne & H) | gt) >> 15) · 0xFFFF    (all ones: match or crossed)
//	t    = (h ⊕ v) & mask;  h ^= t;  v ^= t
//
// No lane borrows from its neighbour because h, v < 2¹⁵ and x < 2⁸, which
// is why the problem must satisfy FitsSWAR. Cells past the last full word
// of a diagonal take a scalar tail. With opt.Workers > 1 each diagonal is
// split over word indices, so every chunk boundary falls on a 4-cell lane
// boundary and only the last chunk runs a tail. A chunk never stores a
// word that reaches past its own cells, so chunks write disjoint bytes.
//
// Only opt.Workers, opt.MinChunk, opt.Pool and opt.Rec are read; the
// result is bit-identical to Antidiag with Branchless set, which it
// records the same stages and counters as.
func AntidiagSWAR(a, b []byte, opt Options) perm.Permutation {
	m, n := len(a), len(b)
	if !FitsSWAR(m, n) {
		panic(fmt.Sprintf("combing: AntidiagSWAR needs m+n ≤ %d, got %d", MaxSWAR, m+n))
	}
	if m == 0 || n == 0 {
		return RowMajor(a, b)
	}
	if m > n {
		return AntidiagSWAR(b, a, opt).Rotate180()
	}
	return drive(newLanes(a, b), m, n, &opt, 4, lanes.comb, lanes.finish)
}

// lanes holds one SWAR combing run in one array of 16-bit little-endian
// lanes: the horizontal strand tracks (hs), the reversed a beside them
// (ar; index i pairs with a[m-1-i]), the vertical tracks (vs) and b
// (bw), 2m, 2m, 2n and 2n bytes in that order. At four words it reaches
// the cell loop of every diagonal in registers.
type lanes struct {
	buf []byte
	m   int
}

func newLanes(a, b []byte) lanes {
	m, n := len(a), len(b)
	ln := lanes{buf: make([]byte, 4*(m+n)), m: m}
	hs, ar, vs, bw := ln.split()
	le := binary.LittleEndian
	for i := 0; i < m; i++ {
		le.PutUint16(hs[2*i:], uint16(i))
		le.PutUint16(ar[2*i:], uint16(a[m-1-i]))
	}
	for j := 0; j < n; j++ {
		le.PutUint16(vs[2*j:], uint16(m+j))
		le.PutUint16(bw[2*j:], uint16(b[j]))
	}
	return ln
}

// split returns the four lane arrays of ln.
func (ln lanes) split() (hs, ar, vs, bw []byte) {
	m2 := 2 * ln.m
	n2 := len(ln.buf)/2 - m2
	buf := ln.buf
	return buf[:m2:m2], buf[m2 : 2*m2 : 2*m2], buf[2*m2 : 2*m2+n2 : 2*m2+n2], buf[2*m2+n2:]
}

// comb processes cells [lo, hi) of the anti-diagonal whose k-th cell
// pairs horizontal track hBase+k with vertical track vBase+k: four cells
// per word, then the scalar tail.
func (ln lanes) comb(lo, hi, hBase, vBase int) {
	hs, ar, vs, bw := ln.split()
	hs = hs[2*(hBase+lo) : 2*(hBase+hi)]
	ar = ar[2*(hBase+lo) : 2*(hBase+hi)]
	vs = vs[2*(vBase+lo) : 2*(vBase+hi)]
	bw = bw[2*(vBase+lo) : 2*(vBase+hi)]
	ar, vs, bw = ar[:len(hs)], vs[:len(hs)], bw[:len(hs)]
	le := binary.LittleEndian
	i := 0
	for ; i+8 <= len(hs); i += 8 {
		// Full slice expressions give every word a nonzero capacity, so
		// the compiler indexes the backing array directly instead of
		// masking each pointer against an empty result.
		hw, vw := hs[i:i+8:i+8], vs[i:i+8:i+8]
		h := le.Uint64(hw)
		v := le.Uint64(vw)
		x := le.Uint64(ar[i:i+8:i+8]) ^ le.Uint64(bw[i:i+8:i+8])
		// (h|H) − v − L and (x|H) − L: h|H = h+H and x|H = x+H because
		// both stay below 2¹⁵, so the constants fold into one add.
		gt := h + laneBelow - v
		ne := x + laneBelow
		sel := (gt | ^ne) & laneHigh
		t := (h ^ v) & ((sel >> 15) * 0xFFFF)
		le.PutUint64(hw, h^t)
		le.PutUint64(vw, v^t)
	}
	for ; i < len(hs); i += 2 {
		// ar[i] and bw[i] are the low bytes of the lanes: the characters.
		h := le.Uint16(hs[i:])
		v := le.Uint16(vs[i:])
		if ar[i] == bw[i] || h > v {
			le.PutUint16(hs[i:], v)
			le.PutUint16(vs[i:], h)
		}
	}
}

// finish relabels the final lane contents into the kernel, as
// finishKernel does for 32-bit tracks.
func (ln lanes) finish(m, n int) perm.Permutation {
	hs, _, vs, _ := ln.split()
	le := binary.LittleEndian
	kernel := make([]int32, m+n)
	for l := 0; l < m; l++ {
		kernel[le.Uint16(hs[2*l:])] = int32(n + l)
	}
	for r := 0; r < n; r++ {
		kernel[le.Uint16(vs[2*r:])] = int32(r)
	}
	return perm.FromRowToCol(kernel)
}
