// Package banded computes edit distance (and LCS score) by breadth-
// first search over diagonals with LCP jumps — the Landau–Vishkin
// fast path for near-identical inputs.
//
// The full semi-local kernel of this repository answers every substring
// query after O(mn) construction; that generality is wasted on the
// traffic that dominates comparison workloads at scale (deduplication,
// sync, versioned documents), where the two strings differ in a small
// number k of edits. The diagonal BFS trims the common prefix and
// suffix, then explores only the 2k+1 diagonals an optimal alignment
// can touch, extending each frontier along its run of matches by a
// direct comparison, eight bytes per step (see lcp.go). No table is
// built, so the cost is Myers'/Landau–Vishkin's own:
//
//	cost = O(m + n + k²)  on non-repetitive text,
//	       O((m + n)·k/8) word compares at worst (periodic text, whose
//	                      snakes run long on many diagonals)
//
// against Θ(mn) for the kernel. Every answer is exact: no step rests
// on hashing or on random state. DistanceBounded abandons the search as
// soon as the band exceeds a budget maxK, which is what lets a serving-
// path dispatcher probe cheaply and fall back to the kernel pipeline
// when inputs diverge (see internal/query).
//
// Two move sets are provided: DistanceBounded runs the unit-cost
// Levenshtein BFS (substitutions allowed, Landau–Vishkin), and
// LCSScoreBounded runs the insertion/deletion-only BFS
// (Myers' O(ND) with snake jumps), whose distance D relates to the LCS
// by LCS = (m+n−D)/2 — bit-identical to the kernel's Score and to the
// quadratic oracle, which is what the differential wall pins.
package banded

import (
	"bytes"
	"sync"
)

// negInf marks an unreachable diagonal in a frontier array. It is
// deeply negative (never produced by a real frontier) but far from the
// int minimum, so the +1 in transitions cannot wrap.
const negInf = -1 << 40

// workspace owns the frontier arrays the BFS needs, so repeat solves
// allocate nothing once the arrays have grown to size (the alloc guard
// in alloc_test.go pins this). DistanceBounded and LCSScoreBounded
// recycle workspaces through a sync.Pool.
type workspace struct {
	cur, nxt []int
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// growInt returns a slice of length n, reusing s's backing array when
// it is large enough (the workspace-recycling primitive behind the
// zero-alloc guarantee of the hot loop).
func growInt(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// DistanceBounded returns the unit-cost Levenshtein distance of a and b
// with a band budget: (distance, true) when ed(a, b) ≤ maxK, and
// (0, false) as soon as the search proves the distance exceeds maxK —
// without ever exploring more than 2·maxK+1 diagonals. It runs in
// O(m + n + d²) time on non-repetitive text, where d is the distance
// itself (see the package doc for the worst case); a budget of
// len(a)+len(b) never runs out. maxK < 0 is rejected as (0, false).
func DistanceBounded(a, b []byte, maxK int) (int, bool) {
	if maxK < 0 {
		return 0, false
	}
	a, b, _, _ = trimCommon(a, b)
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		if d := m + n; d <= maxK {
			return d, true
		}
		return 0, false
	}
	if abs(m-n) > maxK {
		return 0, false
	}
	ws := wsPool.Get().(*workspace)
	d, ok := ws.levenshtein(a, b, maxK)
	wsPool.Put(ws)
	return d, ok
}

// LCSScoreBounded returns the LCS score of a and b via the
// insertion/deletion BFS, with a budget on the indel distance
// D = m + n − 2·LCS(a, b): (score, true) when D ≤ maxD and (0, false)
// once the band exceeds maxD. It runs in O(m + n + D²) on
// non-repetitive text — the fast path for near-identical inputs,
// bit-identical to the semi-local kernel's Score. A unit-cost edit
// budget k corresponds to maxD = 2k (a substitution costs two indels),
// and a budget of len(a)+len(b) never runs out. maxD < 0 is rejected.
func LCSScoreBounded(a, b []byte, maxD int) (int, bool) {
	if maxD < 0 {
		return 0, false
	}
	a, b, pre, suf := trimCommon(a, b)
	matched := pre + suf
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		if m+n > maxD {
			return 0, false
		}
		return matched, true
	}
	if abs(m-n) > maxD {
		return 0, false
	}
	ws := wsPool.Get().(*workspace)
	d, ok := ws.myers(a, b, maxD)
	wsPool.Put(ws)
	if !ok {
		return 0, false
	}
	return matched + (m+n-d)/2, true
}

// AutoMaxK returns the default band budget for an m×n pair: the edit
// band up to which the BFS is expected to beat kernel construction.
// The kernel costs Θ(mn) cell updates while the BFS costs
// O(m+n+k²) on non-repetitive text, so the budget is set near √(mn)/8,
// far left of the crossover measured in EXPERIMENTS.md, with a floor
// that keeps tiny inputs always eligible. The worst case stays below
// the kernel too: a snake never moves its diagonal's frontier backwards,
// so at most 2k+1 diagonals each compare at most min(m, n) bytes, and
// for m = n the budget caps that at about n²/32 word compares (n²/16
// for LCSScoreBounded's indel budget 2k) against the kernel's n² cells.
func AutoMaxK(m, n int) int {
	k := isqrt(m*n) / 8
	if k < 64 {
		k = 64
	}
	return k
}

// isqrt returns ⌊√x⌋ by Newton iteration (exact for all non-negative
// ints; no float rounding at 10¹²-scale products).
func isqrt(x int) int {
	if x <= 0 {
		return 0
	}
	r := x
	p := (r + 1) / 2
	for p < r {
		r = p
		p = (r + x/r) / 2
	}
	return r
}

// trimCommon strips the longest common prefix and suffix, returning the
// divergent middles and the lengths pre and suf removed. Both move
// sets are invariant under this (any optimal alignment can be rewritten
// to match a common prefix/suffix of equal cost), and it is the single
// biggest win on near-identical traffic: the BFS then starts on the
// divergent middle, not the whole input.
func trimCommon(a, b []byte) (ta, tb []byte, pre, suf int) {
	pre = commonPrefix(a, b)
	a, b = a[pre:], b[pre:]
	suf = commonSuffix(a, b)
	return a[:len(a)-suf], b[:len(b)-suf], pre, suf
}

// levenshtein is the Landau–Vishkin BFS proper. Frontier semantics:
// L(e, d) is the largest row i such that ed(a[:i], b[:i−d]) ≤ e, after
// extension along the diagonal's match run. Transitions into diagonal
// d = i−j for round e: substitution from L(e−1, d)+1, deletion (consume
// a) from L(e−1, d−1)+1, insertion (consume b) from L(e−1, d+1); the
// maximum is clamped to the grid and snaked forward by one LCP jump.
// The answer is the first e with L(e, m−n) = m.
func (ws *workspace) levenshtein(a, b []byte, maxK int) (int, bool) {
	m, n := len(a), len(b)
	kmax := min(maxK, m+n) // every pair is within max(m,n) ≤ m+n edits
	// Diagonals d ∈ [−min(kmax,n), min(kmax,m)], with one sentinel slot
	// on each side so transitions never bounds-check.
	dlo, dhi := -min(kmax, n), min(kmax, m)
	off := 1 - dlo // frontier index of diagonal d is d+off
	width := dhi - dlo + 3
	ws.cur = growInt(ws.cur, width)
	ws.nxt = growInt(ws.nxt, width)
	cur, nxt := ws.cur, ws.nxt
	f0 := commonPrefix(a, b)
	if m == n && f0 == m {
		return 0, true
	}
	cur[off] = f0
	target := m - n
	for e := 1; e <= kmax; e++ {
		// Round e reads cur on [−e−1, e+1]. Round e−1 wrote [−e+1, e−1]
		// into it, and nothing in this call has touched ±e or ±(e+1):
		// the two arrays alternate, so each slot is cleared once per
		// array, just before it is first read.
		unreach(cur, off-e-1)
		unreach(cur, off-e)
		unreach(cur, off+e)
		unreach(cur, off+e+1)
		lo, hi := max(-e, dlo), min(e, dhi)
		for d := lo; d <= hi; d++ {
			t := cur[d+off] + 1 // substitution
			if del := cur[d-1+off] + 1; del > t {
				t = del // deletion from a
			}
			if ins := cur[d+1+off]; ins > t {
				t = ins // insertion from b
			}
			if t < 0 {
				nxt[d+off] = negInf
				continue
			}
			// Clamp to the grid: i ≤ m and j = i−d ≤ n.
			if t > m {
				t = m
			}
			if t > n+d {
				t = n + d
			}
			// Snake. Most jumps end at their first byte, which is
			// checked here, without a call.
			if t < m && t-d < n && a[t] == b[t-d] {
				t += commonPrefix(a[t:], b[t-d:])
			}
			nxt[d+off] = t
			if d == target && t == m {
				return e, true
			}
		}
		cur, nxt = nxt, cur
	}
	return 0, false
}

// unreach marks frontier slot i unreachable, if v has a slot i. The
// BFS clears each slot just before its first read instead of clearing
// all 2·budget+3 slots up front: a near-identical pair finishes in a
// few rounds however large its budget.
func unreach(v []int, i int) {
	if i >= 0 && i < len(v) {
		v[i] = negInf
	}
}

// myers is Myers' O(ND) greedy BFS with LCP snakes: only insertions and
// deletions move between diagonals, so round D touches only diagonals
// with d ≡ D (mod 2) and the frontier updates in place (reads are all
// of the opposite parity, i.e. round D−1).
func (ws *workspace) myers(a, b []byte, maxD int) (int, bool) {
	m, n := len(a), len(b)
	dmax := min(maxD, m+n)
	dlo, dhi := -min(dmax, n), min(dmax, m)
	off := 1 - dlo
	width := dhi - dlo + 3
	ws.cur = growInt(ws.cur, width)
	v := ws.cur
	f0 := commonPrefix(a, b)
	if m == n && f0 == m {
		return 0, true
	}
	v[off] = f0
	target := m - n
	for e := 1; e <= dmax; e++ {
		// Round e reads the opposite parity on [−e−1, e+1]; round e−1
		// wrote it on [−e+1, e−1], so only ±(e+1) is still unset.
		unreach(v, off-e-1)
		unreach(v, off+e+1)
		lo, hi := max(-e, dlo), min(e, dhi)
		if (lo^e)&1 != 0 {
			lo++ // d must share e's parity
		}
		if (hi^e)&1 != 0 {
			hi--
		}
		for d := lo; d <= hi; d += 2 {
			t := v[d-1+off] + 1 // deletion from a
			if ins := v[d+1+off]; ins > t {
				t = ins // insertion from b
			}
			if t < 0 {
				v[d+off] = negInf
				continue
			}
			if t > m {
				t = m
			}
			if t > n+d {
				t = n + d
			}
			if t < m && t-d < n && a[t] == b[t-d] {
				t += commonPrefix(a[t:], b[t-d:])
			}
			v[d+off] = t
			if d == target && t == m {
				return e, true
			}
		}
	}
	return 0, false
}

// Probe is the result of ProbeBand: a cheap, alignment-tolerant
// divergence estimate a dispatcher can consult before committing to the
// banded path. It is a routing hint, never a correctness claim — the
// bounded BFS still abandons the band if the probe underestimates.
type Probe struct {
	// Prefix and Suffix are the lengths of the longest common prefix and
	// suffix the probe trimmed; M and N are the lengths of the divergent
	// middles a[Prefix:Prefix+M] and b[Prefix:Prefix+N] left between
	// them. Every trimmed byte is matched, so a caller can run the BFS on
	// the middles and add Prefix+Suffix back instead of trimming again.
	Prefix, Suffix int
	M, N           int
	// Anchors is how many sample windows were probed; Mismatched is how
	// many of them could not be re-located in the other string within
	// the shift tolerance.
	Anchors, Mismatched int
}

// Probe sampling geometry: anchorCount windows of anchorLen bytes,
// evenly spaced through the trimmed middle of a, each searched for in
// the corresponding neighborhood of b. The search neighborhood extends
// tolerance bytes each way (clamped to [minTolerance, maxTolerance] of
// the dispatcher's band budget), so anchors survive up to that much
// insertion/deletion drift.
const (
	anchorCount  = 16
	anchorLen    = 16
	minTolerance = 32
	maxTolerance = 1024
)

// ProbeBand estimates how far a and b diverge, for routing between the
// banded path and kernel construction: O(m+n) prefix/suffix trim plus
// anchorCount windowed substring searches. maxK is the band budget the
// caller intends to use; it sets the anchor drift tolerance.
//
// Each anchor is searched first within anchorLen bytes of its own
// position, where a near-duplicate pair keeps it, and only then in the
// whole tolerance window. The near window lies inside the full one
// (anchorLen ≤ minTolerance), so the probe is the same as a search of
// the full window alone; it just reads ~3·anchorLen bytes per anchor
// instead of ~2·tol on the pairs the banded path exists for.
func ProbeBand(a, b []byte, maxK int) Probe {
	ta, tb, pre, suf := trimCommon(a, b)
	p := Probe{Prefix: pre, Suffix: suf, M: len(ta), N: len(tb)}
	tol := maxK
	if tol < minTolerance {
		tol = minTolerance
	}
	if tol > maxTolerance {
		tol = maxTolerance
	}
	// Middles small enough for the BFS to chew through regardless of
	// content need no sampling.
	if p.M <= 4*tol || p.N == 0 {
		return p
	}
	for s := 0; s < anchorCount; s++ {
		pos := (s + 1) * (p.M - anchorLen) / (anchorCount + 1)
		win := ta[pos : pos+anchorLen]
		p.Anchors++
		if !near(tb, win, pos, anchorLen) && !near(tb, win, pos, tol) {
			p.Mismatched++
		}
	}
	return p
}

// near reports whether win occurs in b within drift bytes of pos: in
// b[pos−drift : pos+drift+len(win)], clamped to b.
func near(b, win []byte, pos, drift int) bool {
	lo, hi := max(pos-drift, 0), min(pos+drift+len(win), len(b))
	return lo < hi && bytes.Contains(b[lo:hi], win)
}

// Routable reports whether the probe recommends the banded path under
// band budget maxK: the length difference must fit the band, and at
// most a quarter of the anchors may have lost alignment. Near-identical
// pairs lose no anchors (every window re-locates within the drift
// tolerance); heavily diverged pairs lose nearly all of them.
func (p Probe) Routable(maxK int) bool {
	if abs(p.M-p.N) > maxK {
		return false
	}
	return 4*p.Mismatched <= p.Anchors
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
