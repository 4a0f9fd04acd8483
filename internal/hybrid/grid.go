package hybrid

import (
	"semilocal/internal/combing"
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// GridOptions configure GridReduction (Listing 7).
type GridOptions struct {
	// Workers is the number of goroutines combing tiles and composing
	// pairs. ≤ 1 is sequential.
	Workers int
	// Tiles is the target number of grid tiles; 0 defaults to Workers
	// (one tile per worker, the paper's optimal_split intent).
	Tiles int
	// Use16 combs tiles with 16-bit strand indices; the split then also
	// ensures every tile satisfies m+n ≤ 2¹⁶ (the paper's second
	// optimization for Listing 7). Otherwise tiles take the branchless
	// 32-bit loop.
	Use16 bool
	// Rec receives grid-phase timings, tile counters and composition
	// stats; nil disables instrumentation.
	Rec *obs.Recorder
}

// GridReduction computes the kernel with the optimized hybrid of
// Listing 7: the grid is cut once into an mOuter×nOuter tile grid, every
// tile is combed iteratively (in parallel), and the tile kernels are
// then reduced pairwise — always along the currently longest tile axis,
// keeping tile aspect balanced — with braid multiplication, also in
// parallel within each reduction step.
func GridReduction(a, b []byte, opt GridOptions) perm.Permutation {
	return gridReduction(a, b, opt, steadyant.ObservedMult(opt.Rec))
}

func gridReduction(a, b []byte, opt GridOptions, mult product) perm.Permutation {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return combing.RowMajor(a, b)
	}
	target := opt.Tiles
	if target <= 0 {
		target = opt.Workers
	}
	if target < 1 {
		target = 1
	}
	mOuter, nOuter := optimalSplit(m, n, target, opt.Use16)
	aCuts := cuts(m, mOuter)
	bCuts := cuts(n, nOuter)

	var pool *parallel.Pool
	if opt.Workers > 1 {
		pool = parallel.NewPool(opt.Workers)
		defer pool.Close()
	}
	parFor := func(k int, body func(int)) {
		if pool == nil || k < 2 {
			for i := 0; i < k; i++ {
				body(i)
			}
			return
		}
		pool.For(0, k, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				body(i)
			}
		})
	}

	// Phase 1: comb every tile independently. The grid_comb span covers
	// the whole phase; the per-tile comb_diags spans it encloses are the
	// parallel leaf work (so grid phases are excluded from solve-coverage
	// accounting to avoid double counting).
	opt.Rec.Add(obs.CounterGridTiles, int64(mOuter)*int64(nOuter))
	gsp := opt.Rec.Start(obs.StageGridComb)
	grid := newGrid(mOuter, nOuter)
	parFor(mOuter*nOuter, func(k int) {
		i, j := k/nOuter, k%nOuter
		ta := a[aCuts[i]:aCuts[i+1]]
		tb := b[bCuts[j]:bCuts[j+1]]
		grid[i][j] = combTile(ta, tb, &opt)
	})
	gsp.End()

	// Phase 2: pairwise reduction along the longest tile axis.
	heights := spans(aCuts)
	widths := spans(bCuts)
	rsp := opt.Rec.Start(obs.StageGridReduce)
	for mOuter > 1 || nOuter > 1 {
		rowReduction := decideRowReduction(mOuter, nOuter, heights, widths)
		if rowReduction {
			newN := (nOuter + 1) / 2
			next := newGrid(mOuter, newN)
			parFor(mOuter*newN, func(k int) {
				i, j := k/newN, k%newN
				if 2*j+1 < nOuter {
					next[i][j] = composeB(grid[i][2*j], grid[i][2*j+1],
						heights[i], widths[2*j], widths[2*j+1], mult)
				} else {
					next[i][j] = grid[i][2*j]
				}
			})
			grid, widths, nOuter = next, mergePairs(widths), newN
		} else {
			newM := (mOuter + 1) / 2
			next := newGrid(newM, nOuter)
			parFor(newM*nOuter, func(k int) {
				i, j := k/nOuter, k%nOuter
				if 2*i+1 < mOuter {
					next[i][j] = composeA(grid[2*i][j], grid[2*i+1][j],
						heights[2*i], heights[2*i+1], widths[j], mult)
				} else {
					next[i][j] = grid[2*i][j]
				}
			})
			grid, heights, mOuter = next, mergePairs(heights), newM
		}
	}
	rsp.End()
	return grid[0][0]
}

// decideRowReduction applies the paper's heuristic: compose along the
// longest tile axis so tile shapes stay balanced; degenerate tile grids
// must reduce along their only splittable axis.
func decideRowReduction(mOuter, nOuter int, heights, widths []int) bool {
	switch {
	case nOuter == 1:
		return false
	case mOuter == 1:
		return true
	default:
		return maxOf(heights) >= maxOf(widths)
	}
}

func combTile(a, b []byte, opt *GridOptions) perm.Permutation {
	if opt.Use16 && combing.Fits16(len(a), len(b)) {
		return combing.Antidiag16(a, b, combing.Options{Rec: opt.Rec})
	}
	return combing.Antidiag(a, b, combing.Options{Branchless: true, Rec: opt.Rec})
}

// optimalSplit chooses the tile grid dimensions: it repeatedly doubles
// the dimension whose tiles are currently longer until at least target
// tiles exist (and, with use16, until every tile has m+n ≤ 2¹⁶).
func optimalSplit(m, n, target int, use16 bool) (mOuter, nOuter int) {
	mOuter, nOuter = 1, 1
	for {
		tm, tn := ceilDiv(m, mOuter), ceilDiv(n, nOuter)
		enough := mOuter*nOuter >= target && (!use16 || combing.Fits16(tm, tn))
		if enough {
			return mOuter, nOuter
		}
		if tm >= tn && mOuter < m {
			mOuter *= 2
			if mOuter > m {
				mOuter = m
			}
		} else if nOuter < n {
			nOuter *= 2
			if nOuter > n {
				nOuter = n
			}
		} else if mOuter < m {
			mOuter *= 2
			if mOuter > m {
				mOuter = m
			}
		} else {
			// Cannot split further; tiles are single cells.
			return mOuter, nOuter
		}
	}
}

// cuts returns k+1 boundaries splitting length l into k near-equal parts.
func cuts(l, k int) []int {
	c := make([]int, k+1)
	for i := 0; i <= k; i++ {
		c[i] = i * l / k
	}
	return c
}

func spans(cuts []int) []int {
	s := make([]int, len(cuts)-1)
	for i := range s {
		s[i] = cuts[i+1] - cuts[i]
	}
	return s
}

func mergePairs(s []int) []int {
	out := make([]int, 0, (len(s)+1)/2)
	for i := 0; i < len(s); i += 2 {
		v := s[i]
		if i+1 < len(s) {
			v += s[i+1]
		}
		out = append(out, v)
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func newGrid(m, n int) [][]perm.Permutation {
	g := make([][]perm.Permutation, m)
	for i := range g {
		g[i] = make([]perm.Permutation, n)
	}
	return g
}

func maxOf(s []int) int {
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
