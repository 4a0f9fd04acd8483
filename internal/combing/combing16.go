package combing

import (
	"fmt"

	"semilocal/internal/obs"
	"semilocal/internal/parallel"
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

// RowMajor16 is RowMajor with strand indices stored in 16-bit words, the
// paper's reduced-precision optimization for m+n ≤ 2¹⁶. Halving the
// element size doubles the number of strand indices per cache line (and,
// in the paper's AVX setting, per SIMD vector).
func RowMajor16(a, b []byte) perm.Permutation {
	m, n := len(a), len(b)
	if !Fits16(m, n) {
		panic(fmt.Sprintf("combing: RowMajor16 needs m+n ≤ %d, got %d", Max16, m+n))
	}
	hs := make([]uint16, m)
	vs := make([]uint16, n)
	for i := range hs {
		hs[i] = uint16(i)
	}
	for j := range vs {
		vs[j] = uint16(m + j)
	}
	for i := 0; i < m; i++ {
		h := hs[m-1-i]
		ai := a[i]
		for j := 0; j < n; j++ {
			v := vs[j]
			if ai == b[j] || h > v {
				vs[j] = h
				h = v
			}
		}
		hs[m-1-i] = h
	}
	return finishKernel16(hs, vs, m, n)
}

// Antidiag16 is the anti-diagonal branchless combing with 16-bit strand
// indices. Parallelism follows opt as in Antidiag.
func Antidiag16(a, b []byte, opt Options) perm.Permutation {
	m, n := len(a), len(b)
	if !Fits16(m, n) {
		panic(fmt.Sprintf("combing: Antidiag16 needs m+n ≤ %d, got %d", Max16, m+n))
	}
	if m == 0 || n == 0 {
		return trivialKernel(m, n)
	}
	if m > n {
		return Antidiag16(b, a, opt).Rotate180()
	}
	st := newState16(a, b)
	run := func(upBound, hBase, vBase int) {
		st.inner(0, upBound, hBase, vBase)
	}
	if opt.Workers > 1 {
		pool := opt.Pool
		if pool == nil {
			p := parallel.NewPool(opt.Workers)
			defer p.Close()
			pool = p
		}
		minChunk := opt.minChunk()
		run = func(upBound, hBase, vBase int) {
			if upBound < minChunk {
				st.inner(0, upBound, hBase, vBase)
				return
			}
			pool.For(0, upBound, func(lo, hi int) { st.inner(lo, hi, hBase, vBase) })
		}
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
	k := finishKernel16(st.hs, st.vs, m, n)
	fsp.End()
	return k
}

type state16 struct {
	aRev []byte
	b    []byte
	hs   []uint16
	vs   []uint16
}

func newState16(a, b []byte) *state16 {
	m, n := len(a), len(b)
	st := &state16{
		aRev: make([]byte, m),
		b:    b,
		hs:   make([]uint16, m),
		vs:   make([]uint16, n),
	}
	for i := 0; i < m; i++ {
		st.aRev[i] = a[m-1-i]
		st.hs[i] = uint16(i)
	}
	for j := 0; j < n; j++ {
		st.vs[j] = uint16(m + j)
	}
	return st
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

func finishKernel16(hs, vs []uint16, m, n int) perm.Permutation {
	kernel := make([]int32, m+n)
	for l := 0; l < m; l++ {
		kernel[hs[l]] = int32(n + l)
	}
	for r := 0; r < n; r++ {
		kernel[vs[r]] = int32(r)
	}
	return perm.FromRowToCol(kernel)
}
