package banded_test

import (
	"bytes"
	"testing"

	"semilocal/internal/banded"
	"semilocal/internal/oracle"
)

// FuzzBandedDistance cross-checks every banded entry point against the
// quadratic oracles on fuzzer-chosen inputs, including the maxK-bounded
// early-exit contract: a bounded call must either return the exact
// distance within budget or report a clean early exit, never a wrong
// number. Inputs are clamped so the O(mn) oracles stay fast.
func FuzzBandedDistance(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"), 3)
	f.Add([]byte(""), []byte(""), 0)
	f.Add([]byte("GATTACA"), []byte("GATTACA"), 0)
	f.Add([]byte("aaaaaaaa"), []byte("bbbbbbbb"), 4)
	f.Add(bytes.Repeat([]byte("ab"), 20), bytes.Repeat([]byte("ba"), 20), 2)
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"), []byte("abcdefghijklmnopqrstuvwxy"), 1)
	f.Add(bytes.Repeat([]byte{0, 1}, 32), bytes.Repeat([]byte{1, 0}, 31), 100)
	f.Fuzz(func(t *testing.T, a, b []byte, maxK int) {
		if len(a) > 256 {
			a = a[:256]
		}
		if len(b) > 256 {
			b = b[:256]
		}
		full := len(a) + len(b) // a budget no pair exceeds
		wantED := oracle.EditDistance(a, b)
		if got, ok := banded.DistanceBounded(a, b, full); !ok || got != wantED {
			t.Fatalf("DistanceBounded(%q, %q, full) = (%d, %v), want %d", a, b, got, ok, wantED)
		}
		wantLCS := oracle.Score(a, b)
		if got, ok := banded.LCSScoreBounded(a, b, full); !ok || got != wantLCS {
			t.Fatalf("LCSScoreBounded(%q, %q, full) = (%d, %v), want %d", a, b, got, ok, wantLCS)
		}
		// Bounded early-exit contract under a fuzzed budget.
		if maxK > 1024 {
			maxK %= 1025
		}
		got, ok := banded.DistanceBounded(a, b, maxK)
		switch {
		case maxK < 0 && ok:
			t.Fatalf("DistanceBounded(maxK=%d) reported ok on negative budget", maxK)
		case maxK >= 0 && wantED <= maxK && (!ok || got != wantED):
			t.Fatalf("DistanceBounded(%q, %q, %d) = (%d, %v), want (%d, true)", a, b, maxK, got, ok, wantED)
		case maxK >= 0 && wantED > maxK && ok:
			t.Fatalf("DistanceBounded(%q, %q, %d) = (%d, true), want early exit (distance %d)", a, b, maxK, got, wantED)
		}
		wantD := len(a) + len(b) - 2*wantLCS
		gotS, ok := banded.LCSScoreBounded(a, b, maxK)
		switch {
		case maxK < 0 && ok:
			t.Fatalf("LCSScoreBounded(maxD=%d) reported ok on negative budget", maxK)
		case maxK >= 0 && wantD <= maxK && (!ok || gotS != wantLCS):
			t.Fatalf("LCSScoreBounded(%q, %q, %d) = (%d, %v), want (%d, true)", a, b, maxK, gotS, ok, wantLCS)
		case maxK >= 0 && wantD > maxK && ok:
			t.Fatalf("LCSScoreBounded(%q, %q, %d) = (%d, true), want early exit (indel distance %d)", a, b, maxK, gotS, wantD)
		}
	})
}
