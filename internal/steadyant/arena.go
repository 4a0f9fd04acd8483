package steadyant

import (
	"semilocal/internal/obs"
	"semilocal/internal/perm"
)

// The memory optimization: all permutation storage lives in two arena
// blocks of 4N words each (exactly 8N words total, as in the paper),
// whose roles flip between recursion levels; index mappings live in one
// 2N-word block per recursion depth (O(N log N) in total, which the
// paper notes is unavoidable since every level's mappings stay live).
//
// A recursion node of size n owns the index range [off, off+n) of every
// arena array. Its inputs are cur.p and cur.q; it writes its children's
// inputs into other.p and other.q at the child sub-ranges, the children
// (for whom the blocks swap roles) leave their results in other.p, and
// the node finally overwrites cur.p with its own result. The four
// expansion scratch arrays reuse storage that is dead by then: cur.q,
// both s arrays of cur, and one s array of other.

type arenaBlock struct {
	p, q, s1, s2 []int32
}

func newArenaBlock(n int) *arenaBlock {
	backing := make([]int32, 4*n)
	return &arenaBlock{
		p:  backing[0*n : 1*n],
		q:  backing[1*n : 2*n],
		s1: backing[2*n : 3*n],
		s2: backing[3*n : 4*n],
	}
}

type arena struct {
	n        int
	colRank  []int32   // shared split scratch (used strictly before recursing)
	maps     [][]int32 // per-depth mapping storage, lazily grown
	base     int
	maxDepth int // deepest recursion level reached (single-goroutine, plain write)
}

// mapsAt returns a mapping buffer of at least 2n words for a node of
// size n at the given depth. The sequential depth-first recursion has at
// most one live node per depth, so a single buffer per depth — sized for
// the largest node there, which is the first one to ask — suffices:
// Σ_d 2·N/2^d = 4N words in total, rather than the 2N·log N a
// per-node layout would touch.
func (a *arena) mapsAt(depth, n int) []int32 {
	for len(a.maps) <= depth {
		a.maps = append(a.maps, nil)
	}
	if cap(a.maps[depth]) < 2*n {
		// +2 headroom: sibling nodes at one depth differ in size by one.
		a.maps[depth] = make([]int32, 2*n+2)
	}
	return a.maps[depth][:2*n]
}

// multiplyArena multiplies with arena-preallocated storage; base is the
// order at which recursion stops (1, or precalcOrder for Combined). A
// non-nil rec receives the arena bytes touched and the recursion depth
// reached; a nil rec skips both.
func multiplyArena(p, q perm.Permutation, base int, rec *obs.Recorder) perm.Permutation {
	n := p.Size()
	cur := newArenaBlock(n)
	other := newArenaBlock(n)
	copy(cur.p, p.RowToCol())
	copy(cur.q, q.RowToCol())
	a := &arena{n: n, colRank: make([]int32, n), base: base}
	a.rec(cur, other, 0, 0, n)
	if rec != nil {
		rec.Add(obs.CounterArenaBytes, a.bytes())
		rec.RecordComposeDepth(int64(a.maxDepth))
	}
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

func (a *arena) rec(cur, other *arenaBlock, depth, off, n int) {
	if depth > a.maxDepth {
		a.maxDepth = depth
	}
	p := cur.p[off : off+n]
	q := cur.q[off : off+n]
	if n <= a.base {
		multiplySmallInto(p, q, p)
		return
	}
	h := n / 2

	// Mapping storage for this node: [loRows h][hiRows n-h][loCols h][hiCols n-h].
	m := a.mapsAt(depth, n)
	loRows, hiRows := m[:h], m[h:n]
	loCols, hiCols := m[n:n+h], m[n+h:]

	splitP(p, h, other.p[off:off+h], other.p[off+h:off+n], loRows, hiRows)
	splitQ(q, h, other.q[off:off+h], other.q[off+h:off+n], loCols, hiCols, a.colRank[off:off+n])

	a.rec(other, cur, depth+1, off, h)
	a.rec(other, cur, depth+1, off+h, n-h)

	// Children left their results in other.p; expand them into scratch
	// that is dead at this point.
	loR2C := cur.q[off : off+n]
	loC2R := cur.s1[off : off+n]
	hiR2C := cur.s2[off : off+n]
	hiC2R := other.s1[off : off+n]
	expand(other.p[off:off+h], loRows, loCols, loR2C, loC2R)
	expand(other.p[off+h:off+n], hiRows, hiCols, hiR2C, hiC2R)

	antPassage(loR2C, loC2R, hiR2C, hiC2R, p)
}
