package banded

// Exactness of the LCP layer: the word-at-a-time prefix and suffix
// compares against byte scans over every start pair of short strings,
// the BFS on the periodic shapes whose snakes run longest, and the
// lazily cleared frontier against a workspace full of stale values.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func naiveLCP(a, b []byte) int {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	return k
}

func naiveSuffix(a, b []byte) int {
	k := 0
	for k < len(a) && k < len(b) && a[len(a)-1-k] == b[len(b)-1-k] {
		k++
	}
	return k
}

// lcpShapes returns the string pairs TestLCPExact sweeps: every length
// 0–17 of all-equal, periodic and random strings against each other,
// plus longer strings with one mismatch planted at each offset, so that
// every position of a mismatch relative to the 8-byte words (first
// byte, inside a word, on either side of a word boundary, in the tail)
// is met from every start.
func lcpShapes() [][2][]byte {
	rng := rand.New(rand.NewSource(9))
	var pairs [][2][]byte
	for la := 0; la <= 17; la++ {
		for lb := 0; lb <= 17; lb++ {
			pairs = append(pairs,
				[2][]byte{bytes.Repeat([]byte("a"), la), bytes.Repeat([]byte("a"), lb)},
				[2][]byte{bytes.Repeat([]byte("ab"), 9)[:la], bytes.Repeat([]byte("ab"), 9)[:lb]},
				[2][]byte{bytes.Repeat([]byte("abc"), 6)[:la], bytes.Repeat([]byte("ab"), 9)[:lb]},
				[2][]byte{randBytes(rng, la, 2), randBytes(rng, lb, 2)},
				[2][]byte{randBytes(rng, la, 4), randBytes(rng, lb, 4)},
			)
		}
	}
	for _, l := range []int{8, 9, 16, 17, 24, 33} {
		for p := 0; p < l; p++ {
			a := bytes.Repeat([]byte("x"), l)
			b := bytes.Repeat([]byte("x"), l)
			b[p] = 'y'
			pairs = append(pairs, [2][]byte{a, b})
		}
	}
	return pairs
}

// TestLCPExact checks commonPrefix(a[i:], b[j:]) — the BFS's LCP jump
// — and commonSuffix(a[:i], b[:j]) against byte scans for every (i, j),
// including the empty ends.
func TestLCPExact(t *testing.T) {
	for _, p := range lcpShapes() {
		a, b := p[0], p[1]
		for i := 0; i <= len(a); i++ {
			for j := 0; j <= len(b); j++ {
				if got, want := commonPrefix(a[i:], b[j:]), naiveLCP(a[i:], b[j:]); got != want {
					t.Fatalf("commonPrefix(%q, %q) = %d, want %d", a[i:], b[j:], got, want)
				}
				if got, want := commonSuffix(a[:i], b[:j]), naiveSuffix(a[:i], b[:j]); got != want {
					t.Fatalf("commonSuffix(%q, %q) = %d, want %d", a[:i], b[:j], got, want)
				}
			}
		}
	}
}

// TestPeriodicBinaryDifferential: periodic binary strings maximize
// repeated substrings, so the longest snakes run on the most diagonals
// at once. Distance and LCSScore must match the quadratic references.
func TestPeriodicBinaryDifferential(t *testing.T) {
	for _, seed := range []int64{99, 100, 141, 0xdead + 99} {
		rng := rand.New(rand.NewSource(seed))
		for it := 0; it < 80; it++ {
			a := bytes.Repeat(randBytes(rng, 1+rng.Intn(4), 2), 1+rng.Intn(40))
			b := mutateLocal(rng, a, rng.Intn(5))
			if got, want := Distance(a, b), dpEdit(a, b); got != want {
				t.Fatalf("seed %d: Distance(%q, %q) = %d, want %d", seed, a, b, got, want)
			}
			if got, want := LCSScore(a, b), dpLCS(a, b); got != want {
				t.Fatalf("seed %d: LCSScore(%q, %q) = %d, want %d", seed, a, b, got, want)
			}
		}
	}
}

// TestFrontierIgnoresStaleSlots runs both BFS move sets on a workspace
// whose frontier arrays are filled with large stale values, as a pooled
// workspace's may be after a longer solve: the lazily cleared frontier
// must never read a slot this call has not written or cleared.
func TestFrontierIgnoresStaleSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	poisoned := func(s []int) []int {
		s = growInt(s, 256)
		for i := range s {
			s[i] = 1 << 30
		}
		return s
	}
	var ws workspace
	for it := 0; it < 400; it++ {
		a, b := randPair(rng, 60, 3)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, budget := range []int{-1, 3, 20} {
			name := fmt.Sprintf("(%q, %q, budget %d)", a, b, budget)
			ws.cur, ws.nxt = poisoned(ws.cur), poisoned(ws.nxt)
			want := dpEdit(a, b)
			if got, ok := ws.levenshtein(a, b, budget); ok != (budget < 0 || want <= budget) || ok && got != want {
				t.Fatalf("levenshtein%s = (%d, %v), want %d", name, got, ok, want)
			}
			ws.cur, ws.nxt = poisoned(ws.cur), poisoned(ws.nxt)
			wantD := len(a) + len(b) - 2*dpLCS(a, b)
			if got, ok := ws.myers(a, b, budget); ok != (budget < 0 || wantD <= budget) || ok && got != wantD {
				t.Fatalf("myers%s = (%d, %v), want %d", name, got, ok, wantD)
			}
		}
	}
}

// mutateLocal applies k random single-character edits to a copy of a.
func mutateLocal(rng *rand.Rand, a []byte, k int) []byte {
	b := append([]byte(nil), a...)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0: // substitute
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(2))
		case op == 1: // insert
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{byte('a' + rng.Intn(2))}, b[p:]...)...)
		case op == 2 && len(b) > 0: // delete
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		}
	}
	return b
}
