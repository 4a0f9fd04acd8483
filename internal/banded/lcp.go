package banded

import (
	"encoding/binary"
	"math/bits"
)

// LCP jumps are what turn the diagonal BFS from a cell-by-cell walk
// into Myers'/Landau–Vishkin's "snake": extending a frontier along a
// run of matching characters is one longest-common-prefix query. The
// classical construction answers it in O(1) from a suffix array plus an
// LCP-RMQ table, but building those costs more than the whole BFS on
// near-identical traffic, where most jumps end after a byte or two.
// This package compares directly instead: one byte first, inline in the
// BFS loop (a random mismatch exits at once, without a call), then
// eight bytes per step as one XOR of little-endian words, then the tail
// byte by byte. The answer is exact by construction; no table, hash or
// random state is involved.

// commonPrefix returns the length of the longest common prefix of a and
// b, comparing eight bytes per step. It is the LCP jump of both BFS
// move sets (commonPrefix(a[i:], b[j:]) is LCP(i, j); the BFS checks
// the first byte inline and calls it only on a match) and the prefix
// half of trimCommon.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	k := 0
	for ; k+8 <= n; k += 8 {
		if x := binary.LittleEndian.Uint64(a[k:]) ^ binary.LittleEndian.Uint64(b[k:]); x != 0 {
			// The lowest set byte of x is the first mismatch.
			return k + bits.TrailingZeros64(x)>>3
		}
	}
	for k < n && a[k] == b[k] {
		k++
	}
	return k
}

// commonSuffix returns the length of the longest common suffix of a and
// b, comparing eight bytes per step backwards from the ends.
func commonSuffix(a, b []byte) int {
	i, j := len(a), len(b)
	n := min(i, j)
	k := 0
	for ; k+8 <= n; k += 8 {
		if x := binary.LittleEndian.Uint64(a[i-k-8:]) ^ binary.LittleEndian.Uint64(b[j-k-8:]); x != 0 {
			// The highest set byte of x is the mismatch nearest the end.
			return k + bits.LeadingZeros64(x)>>3
		}
	}
	for k < n && a[i-1-k] == b[j-1-k] {
		k++
	}
	return k
}
