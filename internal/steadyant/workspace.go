package steadyant

import "semilocal/internal/recycle"

// Workspace is a reusable multiplication arena: the same 8N-word
// flip-flop blocks, per-depth mapping storage and split scratch that
// multiplyArena allocates per call, retained across calls so repeated
// multiplications of bounded order allocate nothing in steady state.
// Streaming sessions lean on this: every spine composition of an
// append reuses one workspace instead of paying a fresh arena.
//
// A Workspace is single-threaded by design (the arena's depth-first
// recursion assumes one live node per depth); callers that multiply
// concurrently must use one Workspace per goroutine. The zero value is
// ready to use and grows on demand; regrowth retires the outgrown
// backing into the workspace's recycler, so an order that oscillates
// (grow, shrink, grow) reuses storage instead of re-allocating.
type Workspace struct {
	cap     int // largest order the retained storage fits
	backing []int32
	cur     arenaBlock // full-capacity views, set by grow
	other   arenaBlock
	blkA    arenaBlock // per-call views of length n, passed to the recursion
	blkB    arenaBlock
	ar      arena
	pool    recycle.Pool[int32] // retired backing + colRank buffers
}

// grow ensures the retained storage fits order n. Growth allocates (or
// reuses a retired buffer); subsequent calls at or below the grown
// order do not.
func (w *Workspace) grow(n int) {
	if n <= w.cap {
		return
	}
	w.pool.Put(w.backing)
	w.pool.Put(w.ar.colRank)
	w.backing = w.pool.Get(8 * n)
	w.cur = arenaBlock{
		p:  w.backing[0*n : 1*n],
		q:  w.backing[1*n : 2*n],
		s1: w.backing[2*n : 3*n],
		s2: w.backing[3*n : 4*n],
	}
	w.other = arenaBlock{
		p:  w.backing[4*n : 5*n],
		q:  w.backing[5*n : 6*n],
		s1: w.backing[6*n : 7*n],
		s2: w.backing[7*n : 8*n],
	}
	w.ar.colRank = w.pool.Get(n)
	w.ar.maps = w.ar.maps[:0] // regrown lazily by mapsAt
	w.cap = n
}

// Order reports the largest order the retained storage fits.
func (w *Workspace) Order() int { return w.cap }

// MultiplyInto writes the sticky braid product of the row→column arrays
// p and q (equal length) into dst, which must have the same length and
// may alias p or q. The combined sequential configuration is used
// (precalc base, arena storage). After the workspace has grown to the
// order once, further calls at that order or below perform zero heap
// allocations.
func (w *Workspace) MultiplyInto(p, q, dst []int32) {
	n := len(p)
	if len(q) != n || len(dst) != n {
		panic("steadyant: MultiplyInto length mismatch")
	}
	if n == 0 {
		return
	}
	w.grow(n)
	// The recursion reads its inputs from block slices of length
	// exactly n; the per-call views live inside the workspace so the
	// pointers handed to the recursion never escape to the heap.
	w.blkA = arenaBlock{p: w.cur.p[:n], q: w.cur.q[:n], s1: w.cur.s1[:n], s2: w.cur.s2[:n]}
	w.blkB = arenaBlock{p: w.other.p[:n], q: w.other.q[:n], s1: w.other.s1[:n], s2: w.other.s2[:n]}
	copy(w.blkA.p, p)
	copy(w.blkA.q, q)
	w.ar.n = n
	w.ar.base = precalcOrder
	w.ar.maxDepth = 0
	w.ar.rec(&w.blkA, &w.blkB, 0, 0, n)
	copy(dst, w.blkA.p)
}

// Warm grows the workspace to order n and builds the precalc table, so
// a later timed or alloc-audited multiplication at order ≤ n pays no
// one-time costs.
func (w *Workspace) Warm(n int) {
	WarmPrecalc()
	w.grow(n)
	// Touch every depth's mapping buffer the way the recursion will:
	// the first multiplication at each size otherwise still appends to
	// the per-depth maps slice.
	for depth, size := 0, n; size > precalcOrder; depth, size = depth+1, (size+1)/2 {
		w.ar.mapsAt(depth, size)
	}
}
