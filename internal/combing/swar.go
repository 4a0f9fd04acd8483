package combing

import (
	"encoding/binary"
	"fmt"

	"semilocal/internal/obs"
	"semilocal/internal/parallel"
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
		return trivialKernel(m, n)
	}
	if m > n {
		return AntidiagSWAR(b, a, opt).Rotate180()
	}
	ln := newLanes(a, b)
	var pool *parallel.Pool
	if opt.Workers > 1 {
		pool = opt.Pool
		if pool == nil {
			pool = parallel.NewPool(opt.Workers)
			defer pool.Close()
		}
	}
	minChunk := opt.minChunk()
	run := func(upBound, hBase, vBase int) {
		if pool == nil || upBound < minChunk {
			ln.comb(0, upBound, hBase, vBase)
			return
		}
		pool.For(0, (upBound+3)/4, func(lo, hi int) {
			ln.comb(4*lo, min(4*hi, upBound), hBase, vBase)
		})
	}

	sp := opt.Rec.Start(obs.StageCombDiags)
	for d := 0; d < m-1; d++ {
		run(d+1, m-1-d, 0)
	}
	for k := 0; k <= n-m; k++ {
		run(m, 0, k)
	}
	for q := 1; q < m; q++ {
		run(m-q, 0, n-m+q)
	}
	sp.End()
	opt.Rec.Add(obs.CounterCombCells, int64(m)*int64(n))
	opt.Rec.Add(obs.CounterCombDiags, int64(m+n-1))
	fsp := opt.Rec.Start(obs.StageCombFinish)
	k := ln.finish(m, n)
	fsp.End()
	return k
}

// lanes holds one SWAR combing run: the horizontal strand tracks with
// the reversed a beside them (hs, ar; index i pairs with a[m-1-i]) and
// the vertical tracks with b (vs, bw), each entry a 16-bit little-endian
// lane. All four share one backing allocation.
type lanes struct {
	hs, ar, vs, bw []byte
}

func newLanes(a, b []byte) lanes {
	m, n := len(a), len(b)
	buf := make([]byte, 4*(m+n))
	ln := lanes{
		hs: buf[: 2*m : 2*m],
		ar: buf[2*m : 4*m : 4*m],
		vs: buf[4*m : 4*m+2*n : 4*m+2*n],
		bw: buf[4*m+2*n:],
	}
	le := binary.LittleEndian
	for i := 0; i < m; i++ {
		le.PutUint16(ln.hs[2*i:], uint16(i))
		le.PutUint16(ln.ar[2*i:], uint16(a[m-1-i]))
	}
	for j := 0; j < n; j++ {
		le.PutUint16(ln.vs[2*j:], uint16(m+j))
		le.PutUint16(ln.bw[2*j:], uint16(b[j]))
	}
	return ln
}

// comb processes cells [lo, hi) of the anti-diagonal whose k-th cell
// pairs horizontal track hBase+k with vertical track vBase+k: four cells
// per word, then the scalar tail.
func (ln lanes) comb(lo, hi, hBase, vBase int) {
	hs := ln.hs[2*(hBase+lo) : 2*(hBase+hi)]
	ar := ln.ar[2*(hBase+lo) : 2*(hBase+hi)]
	vs := ln.vs[2*(vBase+lo) : 2*(vBase+hi)]
	bw := ln.bw[2*(vBase+lo) : 2*(vBase+hi)]
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
	le := binary.LittleEndian
	kernel := make([]int32, m+n)
	for l := 0; l < m; l++ {
		kernel[le.Uint16(ln.hs[2*l:])] = int32(n + l)
	}
	for r := 0; r < n; r++ {
		kernel[le.Uint16(ln.vs[2*r:])] = int32(r)
	}
	return perm.FromRowToCol(kernel)
}
