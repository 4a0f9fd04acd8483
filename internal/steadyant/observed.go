package steadyant

import (
	"semilocal/internal/obs"
	"semilocal/internal/perm"
)

// ObservedMult returns a multiplier equivalent to Multiply that reports
// into rec: every product increments the compose counters, and products
// of order ≥ obs.ComposeSpanMinOrder additionally record a compose span,
// the arena bytes touched, and the recursion depth reached. Small
// products are counted but not timed — at the bottom of a combing or
// hybrid run there are Θ(n) of them, and two clock reads each would cost
// more than the multiplication itself. A nil rec returns Multiply
// unchanged, so the disabled path is the uninstrumented code, not a
// wrapper around it.
func ObservedMult(rec *obs.Recorder) func(p, q perm.Permutation) perm.Permutation {
	if rec == nil {
		return Multiply
	}
	return func(p, q perm.Permutation) perm.Permutation {
		n := p.Size()
		rec.Add(obs.CounterComposes, 1)
		rec.Add(obs.CounterComposeOrder, int64(n))
		if n < obs.ComposeSpanMinOrder {
			return Multiply(p, q)
		}
		sp := rec.Start(obs.StageCompose)
		out := multiplyArenaObserved(p, q, rec)
		sp.End()
		return out
	}
}

// multiplyArenaObserved is multiplyArena reporting the arena footprint
// and recursion depth of one product into rec.
func multiplyArenaObserved(p, q perm.Permutation, rec *obs.Recorder) perm.Permutation {
	n := p.Size()
	cur := newArenaBlock(n)
	other := newArenaBlock(n)
	copy(cur.p, p.RowToCol())
	copy(cur.q, q.RowToCol())
	a := &arena{n: n, colRank: make([]int32, n), base: precalcOrder}
	a.rec(cur, other, 0, 0, n)
	rec.Add(obs.CounterArenaBytes, a.bytes())
	rec.RecordComposeDepth(int64(a.maxDepth))
	return perm.FromRowToCol(cur.p)
}

// bytes reports the storage the arena run touched: the two 4n-word
// blocks, the split scratch, and the per-depth mapping buffers.
func (a *arena) bytes() int64 {
	words := int64(8*a.n) + int64(cap(a.colRank))
	for _, m := range a.maps {
		words += int64(cap(m))
	}
	return 4 * words
}
