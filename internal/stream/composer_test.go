package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// referenceComposeB is internal/hybrid's allocating full-order
// formulation of the b-axis composition: flip both kernels (Theorem
// 3.5), compose along the first string (Theorem 3.4) with one order
// m+n1+n2 product, flip back.
func referenceComposeB(k1, k2 perm.Permutation, m, n1, n2 int) perm.Permutation {
	p := steadyant.Compose(k1.Rotate180(), k2.Rotate180(), n1, n2, m, steadyant.Multiply)
	return p.Rotate180()
}

// solveKernel returns P(a, b) as a permutation.
func solveKernel(tb testing.TB, a, b []byte) perm.Permutation {
	tb.Helper()
	k, err := core.Solve(a, b, DefaultSolveConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return k.Permutation()
}

// checkComposeB composes the kernels of (a,b1) and (a,b2) with c and
// asserts the result equals both the full-order reference product and
// a direct solve of b1·b2.
func checkComposeB(t *testing.T, c *composer, a, b1, b2 []byte, label string) {
	t.Helper()
	m, n1, n2 := len(a), len(b1), len(b2)
	k1, k2 := solveKernel(t, a, b1), solveKernel(t, a, b2)
	dst := make([]int32, m+n1+n2)
	c.composeB(k1.RowToCol(), k2.RowToCol(), m, n1, n2, dst)
	got := perm.FromRowToCol(dst)
	if !got.Equal(referenceComposeB(k1, k2, m, n1, n2)) {
		t.Fatalf("%s (m=%d n1=%d n2=%d): order-m composition differs from the full-order reference",
			label, m, n1, n2)
	}
	full := solveKernel(t, a, append(append([]byte(nil), b1...), b2...))
	if !got.Equal(full) {
		t.Fatalf("%s (m=%d n1=%d n2=%d): composition differs from a direct solve of b1·b2",
			label, m, n1, n2)
	}
}

// TestComposerMatchesReference pins the order-m composition against
// the full-order reference and the direct solve on real kernels of
// random string pieces: every pattern length m in [0,70], asymmetric
// piece lengths in [1,60], alphabets of 1 to 4 letters. One case per m
// keeps both pieces below m/3, so m > n1+n2 is covered too. One
// composer serves every case, so its scratch also grows and shrinks.
func TestComposerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randText := func(n, sigma int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(sigma))
		}
		return b
	}
	var c composer
	for m := 0; m <= 70; m++ {
		for trial := 0; trial < 4; trial++ {
			sigma := 1 + rng.Intn(4)
			n1, n2 := 1+rng.Intn(60), 1+rng.Intn(60)
			if trial == 0 {
				n1, n2 = 1+rng.Intn(m/3+1), 1+rng.Intn(m/3+1)
			}
			checkComposeB(t, &c, randText(m, sigma), randText(n1, sigma), randText(n2, sigma),
				fmt.Sprintf("m=%d trial %d σ=%d", m, trial, sigma))
		}
	}
}

// TestComposerRetainsOrderMScratch pins the scratch contract: after
// composing windows far longer than the pattern, every buffer the
// composer retains — its interface arrays and its multiplication
// workspace — is sized by m, not by the window order.
func TestComposerRetainsOrderMScratch(t *testing.T) {
	const m = 16
	a := []byte("acgtacgtacgtacgt")
	var c composer
	for _, n := range []int{64, 512, 2048} {
		b1, b2 := bytes.Repeat([]byte("tgca"), n/4), bytes.Repeat([]byte("ac"), n/4)
		checkComposeB(t, &c, a, b1, b2, fmt.Sprintf("n=%d", n))
	}
	for name, buf := range map[string][]int32{"rows": c.rows, "cols": c.cols, "p": c.p, "q": c.q} {
		if cap(buf) > m {
			t.Errorf("composer retains %d-entry %s, want ≤ m = %d", cap(buf), name, m)
		}
	}
	if got := c.w.Order(); got > m {
		t.Errorf("composer workspace fits order %d, want ≤ m = %d", got, m)
	}
}

// TestComposerLengthMismatch pins the panic contract.
func TestComposerLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	var c composer
	c.composeB(make([]int32, 3), make([]int32, 3), 2, 1, 2, make([]int32, 5))
}

// FuzzComposeB checks the order-m composition against the full-order
// reference and a direct solve on fuzzer-chosen strings. The pattern
// is capped at 40 bytes and each piece at 48, so the references stay
// cheap under fuzzing throughput; empty pieces are allowed.
func FuzzComposeB(f *testing.F) {
	f.Add([]byte("abcab"), []byte("cabba"), []byte("bc"))
	f.Add([]byte(""), []byte("xyz"), []byte("zy"))
	f.Add([]byte("aaaaaaaaaaaa"), []byte("a"), []byte("aa"))
	f.Add([]byte("gattaca"), []byte(""), []byte("attac"))
	f.Add([]byte("abababababababababab"), []byte("bababab"), []byte("b"))
	var c composer
	f.Fuzz(func(t *testing.T, a, b1, b2 []byte) {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b1) > 48 {
			b1 = b1[:48]
		}
		if len(b2) > 48 {
			b2 = b2[:48]
		}
		checkComposeB(t, &c, a, b1, b2, "fuzz")
	})
}

// BenchmarkComposeB times one composition at the stream workloads'
// shapes (m = 32 and 64, a 768-byte window piece before a 256-byte
// chunk): the order-m composer beside the full-order reference product
// it replaces.
func BenchmarkComposeB(b *testing.B) {
	const n1, n2 = 768, 256
	rng := rand.New(rand.NewSource(3))
	randText := func(n int) []byte {
		t := make([]byte, n)
		for i := range t {
			t[i] = "acgt"[rng.Intn(4)]
		}
		return t
	}
	for _, m := range []int{32, 64} {
		a := randText(m)
		k1, k2 := solveKernel(b, a, randText(n1)), solveKernel(b, a, randText(n2))
		r1, r2 := k1.RowToCol(), k2.RowToCol()
		b.Run(fmt.Sprintf("m=%d/order-m", m), func(b *testing.B) {
			var c composer
			dst := make([]int32, m+n1+n2)
			c.composeB(r1, r2, m, n1, n2, dst) // grow to order m
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.composeB(r1, r2, m, n1, n2, dst)
			}
		})
		b.Run(fmt.Sprintf("m=%d/full-order", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceComposeB(k1, k2, m, n1, n2)
			}
		})
	}
}
