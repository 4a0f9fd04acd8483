package combing

import (
	"bytes"
	"testing"

	"semilocal/internal/lcs"
)

// FuzzKernelAgreement cross-checks the combing variants and the DP score
// on arbitrary byte strings. Run with `go test -fuzz FuzzKernelAgreement`
// for continuous fuzzing; the seed corpus also runs under plain `go
// test`.
func FuzzKernelAgreement(f *testing.F) {
	f.Add([]byte("abcabba"), []byte("cbabac"))
	f.Add([]byte(""), []byte("x"))
	f.Add([]byte{0, 255, 0, 255}, []byte{255, 0})
	f.Add(bytes.Repeat([]byte("ab"), 20), bytes.Repeat([]byte("ba"), 17))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 200 {
			a = a[:200]
		}
		if len(b) > 200 {
			b = b[:200]
		}
		want := RowMajor(a, b)
		if err := want.Validate(); err != nil {
			t.Fatalf("kernel not a permutation: %v", err)
		}
		if got := Antidiag(a, b, Options{Branchless: true}); !got.Equal(want) {
			t.Fatal("Antidiag branchless disagrees")
		}
		if got := Antidiag(a, b, Options{Workers: 2, MinChunk: 1}); !got.Equal(want) {
			t.Fatal("Antidiag parallel disagrees")
		}
		if got := AntidiagSWAR(a, b, Options{}); !got.Equal(want) {
			t.Fatal("AntidiagSWAR disagrees")
		}
		if got := AntidiagSWAR(a, b, Options{Workers: 3, MinChunk: 1}); !got.Equal(want) {
			t.Fatal("AntidiagSWAR parallel disagrees")
		}
		if len(a)+len(b) <= Max16 {
			if got := Antidiag16(a, b, Options{}); !got.Equal(want) {
				t.Fatal("Antidiag16 disagrees")
			}
		}
		if got := LoadBalanced(a, b, Options{}); !got.Equal(want) {
			t.Fatal("LoadBalanced disagrees")
		}
		if got, dp := ScoreFromKernel(want, len(a), len(b)), lcs.ScoreFull(a, b); got != dp {
			t.Fatalf("kernel score %d, DP %d", got, dp)
		}
	})
}
