// Package editdist computes semi-local (unit-cost Levenshtein) edit
// distances through the semi-local LCS kernel, using the blow-up
// reduction from Tiskin's semi-local framework: each character c is
// expanded into the two-character block "#c" over an extended alphabet,
// where # matches only #. For the blown-up strings A and B (lengths 2m
// and 2n),
//
//	ed(a, b) = m + n − LCS(A, B),
//
// because every # match realizes either an aligned pair (together with a
// following character match, cost 0) or a substitution (a # match whose
// characters mismatch, cost 1), while unmatched blocks are insertions
// and deletions. Windows of b correspond to even-aligned windows of B,
// so one semi-local solve on the blown-up strings answers edit-distance
// queries for a against every substring of b, every substring of a
// against b, and all prefix/suffix overlaps — the approximate-matching
// setting that the paper's related work (Sellers; Landau–Vishkin)
// studies, at a 4× grid-size overhead over plain LCS.
package editdist

import (
	"fmt"

	"semilocal/internal/banded"
	"semilocal/internal/core"
)

// Sentinel is the byte used as the block separator after blow-up. Inputs
// must not contain it.
const Sentinel byte = 0xff

// Kernel answers semi-local edit-distance queries for a fixed pair of
// strings.
type Kernel struct {
	inner *core.Kernel
	m, n  int // original lengths
}

// Solve blows up a and b and computes their semi-local LCS kernel with
// the configured algorithm. It fails if either input contains Sentinel.
func Solve(a, b []byte, cfg core.Config) (*Kernel, error) {
	for _, c := range a {
		if c == Sentinel {
			return nil, fmt.Errorf("editdist: input a contains the sentinel byte %#x", Sentinel)
		}
	}
	for _, c := range b {
		if c == Sentinel {
			return nil, fmt.Errorf("editdist: input b contains the sentinel byte %#x", Sentinel)
		}
	}
	inner, err := core.Solve(blowUp(a), blowUp(b), cfg)
	if err != nil {
		return nil, err
	}
	return &Kernel{inner: inner, m: len(a), n: len(b)}, nil
}

func blowUp(s []byte) []byte {
	out := make([]byte, 2*len(s))
	for i, c := range s {
		out[2*i] = Sentinel
		out[2*i+1] = c
	}
	return out
}

// Distance returns ed(a, b).
func (k *Kernel) Distance() int {
	return k.m + k.n - k.inner.Score()
}

// SubstringDistance returns ed(a, b[l:r)).
func (k *Kernel) SubstringDistance(l, r int) int {
	if l < 0 || r > k.n || l > r {
		panic(fmt.Sprintf("editdist: SubstringDistance(%d,%d) out of range for n=%d", l, r, k.n))
	}
	return k.m + (r - l) - k.inner.StringSubstring(2*l, 2*r)
}

// SubstringStringDistance returns ed(a[u:v), b).
func (k *Kernel) SubstringStringDistance(u, v int) int {
	if u < 0 || v > k.m || u > v {
		panic(fmt.Sprintf("editdist: SubstringStringDistance(%d,%d) out of range for m=%d", u, v, k.m))
	}
	return (v - u) + k.n - k.inner.SubstringString(2*u, 2*v)
}

// SuffixPrefixDistance returns ed(a[u:], b[:j]).
func (k *Kernel) SuffixPrefixDistance(u, j int) int {
	if u < 0 || u > k.m || j < 0 || j > k.n {
		panic(fmt.Sprintf("editdist: SuffixPrefixDistance(%d,%d) out of range", u, j))
	}
	return (k.m - u) + j - k.inner.SuffixPrefix(2*u, 2*j)
}

// PrefixSuffixDistance returns ed(a[:v), b[j:]).
func (k *Kernel) PrefixSuffixDistance(v, j int) int {
	if v < 0 || v > k.m || j < 0 || j > k.n {
		panic(fmt.Sprintf("editdist: PrefixSuffixDistance(%d,%d) out of range", v, j))
	}
	return v + (k.n - j) - k.inner.PrefixSuffix(2*v, 2*j)
}

// WindowDistances returns ed(a, b[l:l+width)) for every l in
// [0, n-width], in O(m+n) total time.
func (k *Kernel) WindowDistances(width int) []int {
	if width < 0 || width > k.n {
		panic(fmt.Sprintf("editdist: window width %d out of range [0,%d]", width, k.n))
	}
	// Even-aligned windows of the blown-up b: the kernel's window scan
	// computes every offset, of which the even ones are block-aligned.
	blown := k.inner.WindowScores(2 * width)
	out := make([]int, k.n-width+1)
	for l := range out {
		out[l] = k.m + width - blown[2*l]
	}
	return out
}

// BestMatch returns the window of b of the given width with the smallest
// edit distance to a (the leftmost on ties) and that distance.
func (k *Kernel) BestMatch(width int) (l, dist int) {
	ds := k.WindowDistances(width)
	l, dist = 0, ds[0]
	for i, d := range ds {
		if d < dist {
			l, dist = i, d
		}
	}
	return l, dist
}

// Distance computes the plain (global) unit-cost edit distance by
// linear-space dynamic programming — the right tool when no substring
// queries are needed, and the correctness oracle for this package.
func Distance(a, b []byte) int {
	m, n := len(a), len(b)
	if n == 0 {
		return m
	}
	row := make([]int32, n+1)
	for j := range row {
		row[j] = int32(j)
	}
	for i := 1; i <= m; i++ {
		diag := row[0]
		row[0] = int32(i)
		for j := 1; j <= n; j++ {
			up := row[j]
			best := diag
			if a[i-1] != b[j-1] {
				best++
			}
			if up+1 < best {
				best = up + 1
			}
			if row[j-1]+1 < best {
				best = row[j-1] + 1
			}
			row[j] = best
			diag = up
		}
	}
	return int(row[n])
}

// DistanceAuto computes the plain edit distance, choosing the algorithm
// by input shape: it first runs the banded diagonal BFS under the
// AutoMaxK budget — O(n + k²) when the strings are within k edits
// — and falls back to the quadratic DP of Distance only when the pair
// is more divergent than the band covers. Both paths return the exact
// distance; only the running time differs.
func DistanceAuto(a, b []byte) int {
	if d, ok := banded.DistanceBounded(a, b, banded.AutoMaxK(len(a), len(b))); ok {
		return d
	}
	return Distance(a, b)
}
