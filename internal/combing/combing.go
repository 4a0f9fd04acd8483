// Package combing implements the iterative combing algorithms for the
// semi-local LCS problem (Listings 1 and 4 of the paper).
//
// A sticky braid with m+n strands is embedded in the m×n LCS grid: m
// horizontal strands enter at the left edge (bottom-up: the strand at the
// bottom row has track index 0) and n vertical strands enter at the top
// edge (left to right, tracks m … m+n-1). Processing cell (i, j) lets the
// pair of strands currently on tracks (m-1-i, m+j) either cross or swap
// tracks: they swap (do not cross) when a[i] == b[j] or when they have
// crossed before, which — strands being identified with their start
// track — is detected by the horizontal occupant exceeding the vertical
// one.
//
// The result is the semi-local kernel: a permutation mapping strand start
// index (left edge bottom-up, then top edge left-right) to end index
// (bottom edge left-right, then right edge bottom-up).
//
// The paper's SIMD variant runs the branchless cell update across AVX2
// lanes. Its portable analogs here are Antidiag with Options.Branchless
// (one cell per operation, 32-bit strand indices) and AntidiagSWAR (four
// cells per uint64 as 16-bit lanes, for m+n ≤ 2¹⁵; see FitsSWAR).
package combing

import (
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
)

// Multiplier performs sticky braid multiplication of two kernels of equal
// order. It is injected (rather than imported) to keep this package free
// of a dependency on the steady ant implementation; see package steadyant.
type Multiplier func(p, q perm.Permutation) perm.Permutation

// Options configure the anti-diagonal combing variants.
type Options struct {
	// Workers is the number of goroutines processing each anti-diagonal.
	// Values ≤ 1 run sequentially.
	Workers int
	// Branchless replaces the conditional swap with the paper's
	// branch-free bitwise selection, one cell per operation. Its lane
	// analog, four cells per 64-bit word, is AntidiagSWAR, which is
	// always branchless and ignores this field.
	Branchless bool
	// ArithmeticSelect uses the paper's first branch-elimination form,
	// h·(1−p) + p·v, instead of the bitwise masks — the variant §4.1
	// introduces before replacing multiplications with Boolean
	// operations. Only meaningful together with Branchless.
	ArithmeticSelect bool
	// MinMaxSelect expresses the inner loop through masked minimum and
	// maximum — the formulation the paper's conclusion singles out as a
	// "perfect match" for AVX-512 masked min/max instructions: on a
	// mismatch the pair sorts itself (h' = min, v' = max) and on a match
	// it swaps unconditionally. Only meaningful together with Branchless.
	MinMaxSelect bool
	// MinChunk is the minimum anti-diagonal length that is worth
	// splitting across workers; shorter diagonals run inline. 0 means a
	// sensible default.
	MinChunk int
	// Pool optionally supplies an existing worker pool. If nil and
	// Workers > 1, a temporary pool is created for the call.
	Pool *parallel.Pool
	// Rec receives stage timings and cell counters; nil (the default)
	// disables instrumentation at zero cost.
	Rec *obs.Recorder
}

func (o Options) minChunk() int {
	if o.MinChunk > 0 {
		return o.MinChunk
	}
	return 2048
}

// finishKernel relabels final track occupancy into the kernel
// permutation, as in phase 3 of Listing 1: the strand occupying
// horizontal track l ends at index n+l, the strand occupying vertical
// track r ends at index r.
func finishKernel(hs, vs []int32, m, n int) perm.Permutation {
	kernel := make([]int32, m+n)
	for l := 0; l < m; l++ {
		kernel[hs[l]] = int32(n + l)
	}
	for r := 0; r < n; r++ {
		kernel[vs[r]] = int32(r)
	}
	return perm.FromRowToCol(kernel)
}

// RowMajor computes the semi-local LCS kernel of a and b by iterative
// combing in row-major order (Listing 1, the paper's semi_rowmajor).
func RowMajor(a, b []byte) perm.Permutation {
	return RowMajorObserved(a, b, nil)
}

// RowMajorObserved is RowMajor recording its pass and relabeling into
// rec (nil disables instrumentation at zero cost).
func RowMajorObserved(a, b []byte, rec *obs.Recorder) perm.Permutation {
	m, n := len(a), len(b)
	hs := make([]int32, m)
	vs := make([]int32, n)
	for i := range hs {
		hs[i] = int32(i)
	}
	for j := range vs {
		vs[j] = int32(m + j)
	}
	sp := rec.Start(obs.StageCombRows)
	for i := 0; i < m; i++ {
		h := hs[m-1-i] // horizontal track of row i
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
	sp.End()
	rec.Add(obs.CounterCombCells, int64(m)*int64(n))
	fsp := rec.Start(obs.StageCombFinish)
	k := finishKernel(hs, vs, m, n)
	fsp.End()
	return k
}

// ScoreFromKernel extracts the global LCS score of the original strings
// from their kernel: LCS(a,b) = n − #{strands from the top edge to the
// bottom edge}, i.e. n minus the number of kernel nonzeros (s, e) with
// s ≥ m and e < n.
func ScoreFromKernel(kernel perm.Permutation, m, n int) int {
	cnt := 0
	r := kernel.RowToCol()
	for s := m; s < m+n; s++ {
		if int(r[s]) < n {
			cnt++
		}
	}
	return n - cnt
}

// Antidiag computes the kernel by iterating over anti-diagonals in three
// phases (Listing 4): the growing top-left triangle, the full-length
// band, and the shrinking bottom-right triangle. Cells on an
// anti-diagonal are independent and are processed by opt.Workers
// goroutines with a barrier after each diagonal. It requires no relation
// between m and n.
func Antidiag(a, b []byte, opt Options) perm.Permutation {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return trivialKernel(m, n)
	}
	if m > n {
		// The three-phase schedule assumes m ≤ n; solve the transposed
		// problem and flip (Theorem 3.5).
		return Antidiag(b, a, opt).Rotate180()
	}
	st := newState(a, b)
	defer st.close(&opt)
	run := st.runner(&opt)

	sp := opt.Rec.Start(obs.StageCombDiags)
	// Phase 1: anti-diagonals 0 … m-2 of growing length.
	for d := 0; d < m-1; d++ {
		run(d+1, m-1-d, 0)
	}
	// Phase 2: the n-m+1 full-length anti-diagonals.
	for k := 0; k <= n-m; k++ {
		run(m, 0, k)
	}
	// Phase 3: anti-diagonals of shrinking length m-1 … 1.
	for q := 1; q < m; q++ {
		run(m-q, 0, n-m+q)
	}
	sp.End()
	opt.Rec.Add(obs.CounterCombCells, int64(m)*int64(n))
	opt.Rec.Add(obs.CounterCombDiags, int64(m+n-1))
	fsp := opt.Rec.Start(obs.StageCombFinish)
	k := finishKernel(st.hs, st.vs, m, n)
	fsp.End()
	return k
}

// trivialKernel is the kernel of a pair involving an empty string: no
// cell is processed, so every strand keeps its track.
func trivialKernel(m, n int) perm.Permutation {
	hs := make([]int32, m)
	vs := make([]int32, n)
	for i := range hs {
		hs[i] = int32(i)
	}
	for j := range vs {
		vs[j] = int32(m + j)
	}
	return finishKernel(hs, vs, m, n)
}

// state carries the strand arrays and reversed input of one combing run.
type state struct {
	aRev []byte // a reversed: aRev[h_index] pairs with hs[h_index]
	b    []byte
	hs   []int32
	vs   []int32
	pool *parallel.Pool
	own  bool // pool created by us, close it
}

func newState(a, b []byte) *state {
	m, n := len(a), len(b)
	st := &state{
		aRev: make([]byte, m),
		b:    b,
		hs:   make([]int32, m),
		vs:   make([]int32, n),
	}
	for i := 0; i < m; i++ {
		st.aRev[i] = a[m-1-i]
		st.hs[i] = int32(i)
	}
	for j := 0; j < n; j++ {
		st.vs[j] = int32(m + j)
	}
	return st
}

func (st *state) close(opt *Options) {
	if st.own && st.pool != nil {
		st.pool.Close()
	}
}

// runner returns the inloop routine of Listing 4: process up to upBound
// cells of one anti-diagonal, the k-th of which pairs horizontal track
// hBase+k with vertical track vBase+k.
func (st *state) runner(opt *Options) func(upBound, hBase, vBase int) {
	inner := st.innerBranch
	if opt.Branchless {
		inner = st.innerBranchless
		switch {
		case opt.ArithmeticSelect:
			inner = st.innerArithmetic
		case opt.MinMaxSelect:
			inner = st.innerMinMax
		}
	}
	if opt.Workers <= 1 {
		return func(upBound, hBase, vBase int) { inner(0, upBound, hBase, vBase) }
	}
	st.pool = opt.Pool
	if st.pool == nil {
		st.pool = parallel.NewPool(opt.Workers)
		st.own = true
	}
	minChunk := opt.minChunk()
	return func(upBound, hBase, vBase int) {
		if upBound < minChunk {
			inner(0, upBound, hBase, vBase)
			return
		}
		st.pool.For(0, upBound, func(lo, hi int) {
			inner(lo, hi, hBase, vBase)
		})
	}
}

// innerBranch processes cells [lo, hi) of an anti-diagonal with the
// conditional swap.
func (st *state) innerBranch(lo, hi, hBase, vBase int) {
	hs := st.hs[hBase+lo : hBase+hi]
	vs := st.vs[vBase+lo : vBase+hi]
	ar := st.aRev[hBase+lo : hBase+hi]
	bb := st.b[vBase+lo : vBase+hi]
	for k := range hs {
		h, v := hs[k], vs[k]
		if ar[k] == bb[k] || h > v {
			hs[k], vs[k] = v, h
		}
	}
}

// innerMinMax realizes the combing step as a masked min/max — the
// paper's AVX-512 outlook: mismatching pairs sort (the smaller strand
// index stays horizontal iff they have not crossed), matching pairs
// swap. Equivalent to the other selects cell for cell:
//
//	mismatch: h' = min(h,v), v' = max(h,v)
//	match:    h' = v,        v' = h
func (st *state) innerMinMax(lo, hi, hBase, vBase int) {
	hs := st.hs[hBase+lo : hBase+hi]
	vs := st.vs[vBase+lo : vBase+hi]
	ar := st.aRev[hBase+lo : hBase+hi]
	bb := st.b[vBase+lo : vBase+hi]
	for k := range hs {
		h, v := hs[k], vs[k]
		d := h - v
		sign := d >> 31        // all ones iff h < v
		hmin := v + (d & sign) // min(h, v)
		hmax := h - (d & sign) // max(h, v)
		x := int32(ar[k]) ^ int32(bb[k])
		eq := (x - 1) >> 31 // all ones iff match
		hs[k] = (eq & v) | (^eq & hmin)
		vs[k] = (eq & h) | (^eq & hmax)
	}
}

// innerBranchless processes cells [lo, hi) of an anti-diagonal using the
// paper's branch-free selection: with p ∈ {0,1} the combing condition,
//
//	h' = (h & (p-1)) | ((-p) & v)
//	v' = (v & (p-1)) | ((-p) & h)
//
// innerArithmetic eliminates the branch with integer arithmetic,
//
//	h' = h·(1-p) + p·v
//	v' = v·(1-p) + p·h
//
// the form §4.1 presents before switching to the cheaper bitwise masks.
func (st *state) innerArithmetic(lo, hi, hBase, vBase int) {
	hs := st.hs[hBase+lo : hBase+hi]
	vs := st.vs[vBase+lo : vBase+hi]
	ar := st.aRev[hBase+lo : hBase+hi]
	bb := st.b[vBase+lo : vBase+hi]
	for k := range hs {
		h, v := hs[k], vs[k]
		x := int32(ar[k]) ^ int32(bb[k])
		eq := ((x - 1) >> 31) & 1
		gt := ((v - h) >> 31) & 1
		p := eq | gt
		q := 1 - p
		hs[k] = h*q + p*v
		vs[k] = v*q + p*h
	}
}

func (st *state) innerBranchless(lo, hi, hBase, vBase int) {
	hs := st.hs[hBase+lo : hBase+hi]
	vs := st.vs[vBase+lo : vBase+hi]
	ar := st.aRev[hBase+lo : hBase+hi]
	bb := st.b[vBase+lo : vBase+hi]
	for k := range hs {
		h, v := hs[k], vs[k]
		x := int32(ar[k]) ^ int32(bb[k])
		eq := ((x - 1) >> 31) & 1 // 1 iff characters match
		gt := ((v - h) >> 31) & 1 // 1 iff h > v (values fit int32)
		p := eq | gt
		keep, take := p-1, -p
		hs[k] = (h & keep) | (v & take)
		vs[k] = (v & keep) | (h & take)
	}
}
