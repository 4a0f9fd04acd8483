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
//
// Antidiag, Antidiag16 and AntidiagSWAR share one driver: Listing 4's
// three-phase anti-diagonal schedule, the worker pool that splits long
// diagonals, and the stage spans and cell counters. They differ only in
// the cell loop the driver applies to each diagonal (branching or
// branchless on 32-bit tracks, branchless on 16-bit tracks, or four
// 16-bit lanes per word). LoadBalanced reuses the driver's pool helper
// and per-diagonal routine for its own paired schedule.
package combing

import (
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
)

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
	// Pool optionally supplies an existing worker pool, which is never
	// closed. If nil, Workers > 1 and some anti-diagonal reaches
	// MinChunk cells, a temporary pool is created for the call.
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

// startTracks returns the m+n tracks before any cell is combed: every
// strand on its start track, horizontal tracks first.
func startTracks[E int32 | uint16](m, n int) (hs, vs []E) {
	tracks := make([]E, m+n)
	for i := range tracks {
		tracks[i] = E(i)
	}
	return tracks[:m:m], tracks[m:]
}

// finishKernel relabels final track occupancy into the kernel
// permutation, as in phase 3 of Listing 1: the strand occupying
// horizontal track l ends at index n+l, the strand occupying vertical
// track r ends at index r.
func finishKernel[E int32 | uint16](hs, vs []E, m, n int) perm.Permutation {
	kernel := make([]int32, m+n)
	for l, s := range hs {
		kernel[s] = int32(n + l)
	}
	for r, s := range vs {
		kernel[s] = int32(r)
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
	hs, vs := startTracks[int32](m, n)
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
		return RowMajor(a, b) // no cell to comb
	}
	if m > n {
		// The three-phase schedule assumes m ≤ n; solve the transposed
		// problem and flip (Theorem 3.5).
		return Antidiag(b, a, opt).Rotate180()
	}
	return drive(newState(a, b), m, n, &opt, 1, opt.inner(), (*state).finish)
}

// drive is the one anti-diagonal driver behind Antidiag, Antidiag16 and
// AntidiagSWAR: it runs Listing 4's three-phase schedule over the m×n
// grid (0 < m ≤ n), applying comb to every anti-diagonal of the tracks t,
// and then finish. The cell loop is the only part that varies, so it
// comes in as a method expression over the track type: a method value
// or closure over the tracks would escape through Pool.For and allocate
// on every call, even a sequential one. t reaches comb once per
// diagonal, so a track type is a pointer or a few words that travel in
// registers. A diagonal of at least MinChunk cells is split over the
// worker pool in multiples of width cells, the lane width of comb.
// drive records the StageCombDiags and StageCombFinish spans and the
// cell and diagonal counters.
func drive[T any](t T, m, n int, opt *Options, width int,
	comb func(t T, lo, hi, hBase, vBase int), finish func(t T, m, n int) perm.Permutation) perm.Permutation {
	c := comber[T]{t: t, comb: comb, width: width, minChunk: opt.minChunk()}
	var own bool
	if c.pool, own = opt.pool(m); own {
		defer c.pool.Close()
	}
	sp := opt.Rec.Start(obs.StageCombDiags)
	// Phase 1: anti-diagonals 0 … m-2 of growing length.
	for d := 0; d < m-1; d++ {
		c.diag(d+1, m-1-d, 0)
	}
	// Phase 2: the n-m+1 full-length anti-diagonals.
	for k := 0; k <= n-m; k++ {
		c.diag(m, 0, k)
	}
	// Phase 3: anti-diagonals of shrinking length m-1 … 1.
	for q := 1; q < m; q++ {
		c.diag(m-q, 0, n-m+q)
	}
	sp.End()
	opt.Rec.Add(obs.CounterCombCells, int64(m)*int64(n))
	opt.Rec.Add(obs.CounterCombDiags, int64(m+n-1))
	fsp := opt.Rec.Start(obs.StageCombFinish)
	k := finish(t, m, n)
	fsp.End()
	return k
}

// pool returns the worker pool for a comb whose longest anti-diagonal
// has m cells: nil when the comb runs sequentially (Workers ≤ 1, or no
// diagonal reaches MinChunk), else opt.Pool if set, else a new pool
// that the caller must close (own).
func (o *Options) pool(m int) (p *parallel.Pool, own bool) {
	switch {
	case o.Workers <= 1 || m < o.minChunk():
		return nil, false
	case o.Pool != nil:
		return o.Pool, false
	}
	return parallel.NewPool(o.Workers), true
}

// comber applies the cell loop comb to whole anti-diagonals of the
// tracks t: the inloop routine of Listing 4.
type comber[T any] struct {
	t        T
	comb     func(t T, lo, hi, hBase, vBase int)
	pool     *parallel.Pool // nil: every diagonal runs inline
	width    int            // cells per chunk unit of comb
	minChunk int
}

// diag processes the up cells of one anti-diagonal, the k-th of which
// pairs horizontal track hBase+k with vertical track vBase+k. With a
// pool and at least minChunk cells the diagonal is split over the
// workers on multiples of width cells, so only the last chunk is ragged.
func (c *comber[T]) diag(up, hBase, vBase int) {
	if c.pool == nil || up < c.minChunk {
		c.comb(c.t, 0, up, hBase, vBase)
		return
	}
	t, comb, w := c.t, c.comb, c.width
	c.pool.For(0, (up+w-1)/w, func(lo, hi int) {
		comb(t, w*lo, min(w*hi, up), hBase, vBase)
	})
}

// state carries the strand tracks and reversed input of one 32-bit
// combing run. The driver hands it to the cell loop of every diagonal,
// so it travels as a pointer: one word, where the struct is twelve.
type state struct {
	aRev []byte // a reversed: aRev[h_index] pairs with hs[h_index]
	b    []byte
	hs   []int32
	vs   []int32
}

func newState(a, b []byte) *state {
	hs, vs := startTracks[int32](len(a), len(b))
	return &state{aRev: reversed(a), b: b, hs: hs, vs: vs}
}

// reversed returns a copy of a in reverse order, so that the character
// of horizontal track i sits at index i.
func reversed(a []byte) []byte {
	r := make([]byte, len(a))
	for i, c := range a {
		r[len(a)-1-i] = c
	}
	return r
}

func (st *state) finish(m, n int) perm.Permutation { return finishKernel(st.hs, st.vs, m, n) }

// inner selects the cell loop opt asks for.
func (o *Options) inner() func(st *state, lo, hi, hBase, vBase int) {
	switch {
	case !o.Branchless:
		return (*state).innerBranch
	case o.ArithmeticSelect:
		return (*state).innerArithmetic
	case o.MinMaxSelect:
		return (*state).innerMinMax
	}
	return (*state).innerBranchless
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
