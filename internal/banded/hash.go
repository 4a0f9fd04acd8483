package banded

import (
	"math/bits"
	"math/rand/v2"
)

// LCP jumps are what turn the diagonal BFS from Myers' O(nd) into
// Landau–Vishkin's O(n + k²·log n): extending a frontier along a run of
// matching characters ("snaking") becomes one longest-common-prefix
// query instead of a byte-by-byte scan. The classical construction
// builds a suffix array plus an LCP-RMQ table; this package instead
// answers LCP(i, j) by binary search over polynomial prefix hashes —
// stdlib-only, O(m+n) to build, O(log n) per jump, and much cheaper to
// construct than a suffix array (construction cost is the whole point
// of a fast path for near-identical inputs).
//
// Hashing is polynomial evaluation mod the Mersenne prime 2⁶¹−1, with
// TWO independently seeded bases compared in lockstep. A single-hash
// false positive needs a base that is a root of the difference
// polynomial (probability ≈ n/2⁶¹ per comparison); a double-hash false
// positive needs both bases to be roots simultaneously, pushing the
// failure probability below 2⁻⁸⁰ per query — negligible against the
// differential wall's 10⁶-case budgets. The collision-stress suite in
// oracle_test.go pins exactness under deliberately weakened bases.

// mersenne61 is the modulus 2⁶¹−1 of both hash streams.
const mersenne61 = (1 << 61) - 1

// hashBase1/hashBase2 are the polynomial bases, drawn once per process
// from a random seed so a client cannot craft inputs against known
// bases. The collision-stress tests overwrite them with degenerate
// seeds; production code never mutates them. Values are splitmix64
// outputs reduced into [256, p−1): full-avalanche and independent of
// each other.
var hashBase1, hashBase2 = seedBases(rand.Uint64())

// seedBases derives the two polynomial bases from one seed.
func seedBases(seed uint64) (uint64, uint64) {
	b1 := splitmix64(seed)%(mersenne61-256) + 256
	b2 := splitmix64(seed+1)%(mersenne61-256) + 256
	return b1, b2
}

// splitmix64 is the standard 64-bit finalizing mixer (Vigna).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mulmod61 multiplies a·b mod 2⁶¹−1 using one 64×64→128 multiply.
// For a, b < 2⁶¹ the 128-bit product hi·2⁶⁴+lo folds as
// (hi·8 | lo>>61) + (lo & p), because 2⁶⁴ ≡ 8 (mod p); the fold is
// < 2⁶², so one conditional subtraction normalizes.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (hi<<3 | lo>>61) + (lo & mersenne61)
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// addmod61 adds a+b mod 2⁶¹−1 for a, b < p.
func addmod61(a, b uint64) uint64 {
	r := a + b
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// submod61 subtracts b from a mod 2⁶¹−1 for a, b < p.
func submod61(a, b uint64) uint64 {
	r := a + mersenne61 - b
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// jumper answers LCP(i, j) = |longest common prefix of a[i:] and b[j:]|
// in O(log n) after an O(m+n) build. It lives inside a workspace so the
// prefix-hash and power tables are recycled across calls.
type jumper struct {
	a, b []byte
	// Prefix hashes: hX[i] is the hash of the first i bytes of X, one
	// array per base stream. Power tables hold baseᵏ mod p.
	ha1, ha2, hb1, hb2 []uint64
	pow1, pow2         []uint64
}

// init builds the prefix-hash and power tables for a and b, reusing the
// workspace's backing arrays when they are large enough.
func (j *jumper) init(a, b []byte) {
	j.a, j.b = a, b
	m, n := len(a), len(b)
	l := m
	if n > l {
		l = n
	}
	j.pow1 = growU64(j.pow1, l+1)
	j.pow2 = growU64(j.pow2, l+1)
	j.pow1[0], j.pow2[0] = 1, 1
	for i := 1; i <= l; i++ {
		j.pow1[i] = mulmod61(j.pow1[i-1], hashBase1)
		j.pow2[i] = mulmod61(j.pow2[i-1], hashBase2)
	}
	j.ha1 = prefixHashes(growU64(j.ha1, m+1), a, hashBase1)
	j.ha2 = prefixHashes(growU64(j.ha2, m+1), a, hashBase2)
	j.hb1 = prefixHashes(growU64(j.hb1, n+1), b, hashBase1)
	j.hb2 = prefixHashes(growU64(j.hb2, n+1), b, hashBase2)
}

// prefixHashes fills h (len(s)+1 entries) with the rolling prefix
// hashes of s under the given base. Bytes are offset by 1 so the empty
// string and runs of zero bytes hash distinctly.
func prefixHashes(h []uint64, s []byte, base uint64) []uint64 {
	h[0] = 0
	for i, c := range s {
		h[i+1] = addmod61(mulmod61(h[i], base), uint64(c)+1)
	}
	return h
}

// eq reports whether a[i:i+l] and b[j:j+l] hash equal under both bases.
func (j *jumper) eq(i, jb, l int) bool {
	sa1 := submod61(j.ha1[i+l], mulmod61(j.ha1[i], j.pow1[l]))
	sb1 := submod61(j.hb1[jb+l], mulmod61(j.hb1[jb], j.pow1[l]))
	if sa1 != sb1 {
		return false
	}
	sa2 := submod61(j.ha2[i+l], mulmod61(j.ha2[i], j.pow2[l]))
	sb2 := submod61(j.hb2[jb+l], mulmod61(j.hb2[jb], j.pow2[l]))
	return sa2 == sb2
}

// lcpDirectMax is how many bytes lcp compares directly before falling
// back to hash binary search. Near-identical inputs produce mostly
// short mismatch-adjacent jumps (the exemplar's BFS checks 8 bytes
// inline for the same reason); paying log n hash probes for those would
// dominate the fast path.
const lcpDirectMax = 16

// lcp returns the length of the longest common prefix of a[i:] and
// b[jb:].
func (j *jumper) lcp(i, jb int) int {
	a, b := j.a, j.b
	max := len(a) - i
	if r := len(b) - jb; r < max {
		max = r
	}
	k := 0
	for k < max && k < lcpDirectMax && a[i+k] == b[jb+k] {
		k++
	}
	if k < lcpDirectMax || k == max {
		return k
	}
	// The first lcpDirectMax bytes match: binary search the largest l
	// with equal hashes. Invariant: prefixes of length lo match, of
	// length hi+1 (if any) do not.
	lo, hi := k, max
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if j.eq(i, jb, mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// growU64 returns a slice of length n, reusing s's backing array when
// it is large enough (the workspace-recycling primitive behind the
// zero-alloc guarantee of the hot loop).
func growU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// growInt is growU64 for frontier arrays.
func growInt(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}
