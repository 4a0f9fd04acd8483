package semilocal_test

import (
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"semilocal"
	"semilocal/internal/core"
	"semilocal/internal/lcs"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog")
	b := []byte("pack my box with five dozen liquor jugs over the lazy fox")
	k, err := semilocal.Solve(a, b, semilocal.Config{Algorithm: semilocal.GridReduction, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k.Score(), lcs.PrefixRowMajor(a, b); got != want {
		t.Fatalf("kernel score %d, want %d", got, want)
	}
	scores := k.WindowScores(len(a))
	best, at := -1, 0
	for l, s := range scores {
		if s > best {
			best, at = s, l
		}
	}
	if best != k.StringSubstring(at, at+len(a)) {
		t.Fatal("window scan disagrees with direct query")
	}
}

func TestBinaryLCSMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		a := make([]byte, rng.Intn(2000))
		b := make([]byte, rng.Intn(2000))
		for i := range a {
			a[i] = byte(rng.Intn(2))
		}
		for i := range b {
			b[i] = byte(rng.Intn(2))
		}
		for _, workers := range []int{1, 4} {
			if got, want := semilocal.BinaryLCS(a, b, workers), lcs.PrefixRowMajor(a, b); got != want {
				t.Fatalf("BinaryLCS(workers=%d) = %d, want %d", workers, got, want)
			}
		}
	}
}

func TestAllPublicAlgorithms(t *testing.T) {
	a := []byte("GATTACA")
	b := []byte("TACGATTA")
	want := lcs.PrefixRowMajor(a, b)
	for _, alg := range []semilocal.Algorithm{
		semilocal.RowMajor, semilocal.Antidiag, semilocal.AntidiagBranchless,
		semilocal.LoadBalanced, semilocal.Recursive, semilocal.Hybrid, semilocal.GridReduction,
	} {
		k, err := semilocal.Solve(a, b, semilocal.Config{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if k.Score() != want {
			t.Fatalf("%v: score %d, want %d", alg, k.Score(), want)
		}
	}
}

func TestGeneralBitLCSMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		a := make([]byte, rng.Intn(800))
		b := make([]byte, rng.Intn(800))
		sigma := 1 + rng.Intn(30)
		for i := range a {
			a[i] = byte(rng.Intn(sigma))
		}
		for i := range b {
			b[i] = byte(rng.Intn(sigma))
		}
		if got, want := semilocal.GeneralBitLCS(a, b, 2), lcs.PrefixRowMajor(a, b); got != want {
			t.Fatalf("GeneralBitLCS = %d, want %d", got, want)
		}
	}
}

// TestSolveErrorPaths pins Solve's input validation: nil and empty
// inputs are legal (order-0/skew kernels), unknown algorithms are a
// clean error, and negative worker counts degrade to sequential rather
// than failing.
func TestSolveErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		a, b    []byte
		cfg     semilocal.Config
		wantErr bool
	}{
		{name: "nil/nil", a: nil, b: nil},
		{name: "nil/short", a: nil, b: []byte("ab")},
		{name: "short/nil", a: []byte("xy"), b: nil},
		{name: "empty slices", a: []byte{}, b: []byte{}},
		{name: "negative workers", a: []byte("abc"), b: []byte("cba"), cfg: semilocal.Config{Workers: -3}},
		{name: "unknown algorithm", a: []byte("abc"), b: []byte("cba"), cfg: semilocal.Config{Algorithm: semilocal.Algorithm(99)}, wantErr: true},
		{name: "unknown algorithm on empty input", cfg: semilocal.Config{Algorithm: semilocal.Algorithm(-1)}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := semilocal.Solve(tc.a, tc.b, tc.cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatal("Solve succeeded, want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := k.Score(), lcs.PrefixRowMajor(tc.a, tc.b); got != want {
				t.Fatalf("score %d, want %d", got, want)
			}
			// Degenerate kernels must answer boundary queries too.
			if k.StringSubstring(0, k.N()) != k.Score() || k.SubstringString(0, k.M()) != k.Score() {
				t.Fatal("full-range quadrant queries disagree with Score")
			}
		})
	}
}

// TestUnmarshalKernelErrorPaths covers kernel decoding (the store's read
// path, and the inverse of the public Kernel.MarshalBinary) with
// hostile payloads. The oversized cases pin the validation order: a
// header claiming huge dimensions over a tiny body must be rejected by
// the length check before any allocation is attempted (a regression
// here manifests as a multi-gigabyte make, not just a wrong error).
func TestUnmarshalKernelErrorPaths(t *testing.T) {
	header := func(m, n uint64) []byte {
		buf := append([]byte(nil), "SLK1"...)
		buf = binary.AppendUvarint(buf, m)
		buf = binary.AppendUvarint(buf, n)
		return buf
	}
	cases := map[string][]byte{
		"nil":              nil,
		"empty":            {},
		"garbage":          []byte("not a kernel at all"),
		"huge m tiny body": header(1<<30, 1<<30),
		"huge skew":        append(header(1<<39, 0), 0x01),
		// Order fits in int32, so only the payload-length check stands
		// between this header and a 2 GiB index allocation.
		"large m under order limit": append(header(1<<29, 0), 0x01),
		"order over int32":          append(header(1<<40, 1<<40), make([]byte, 64)...),
		"declared over body":        append(header(100, 100), 0x01, 0x02),
	}
	for name, data := range cases {
		data := data
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := core.UnmarshalKernel(data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("accepted")
			}
			// The heap-byte bound is what actually pins the validation
			// order: an always-true error check would still pass err !=
			// nil after a giant make, but not this.
			if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
				t.Fatalf("rejecting %q allocated %d bytes; hostile headers must fail before the index allocation", name, delta)
			}
		})
	}
	// Round trip stays intact after the validation tightening.
	k, err := semilocal.Solve([]byte("gattaca"), []byte("tacgattaca"), semilocal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.UnmarshalKernel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Score() != k.Score() {
		t.Fatal("round trip changed the kernel")
	}
}

// TestEnginePublicAPI smoke-tests the serving layer exactly as an
// application would use it: engine, sessions, batch requests, stats.
func TestEnginePublicAPI(t *testing.T) {
	e := semilocal.NewEngine(semilocal.EngineOptions{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	a, b := []byte("abcabba"), []byte("cbabac")

	sess, err := e.Acquire(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Score(), lcs.PrefixRowMajor(a, b); got != want {
		t.Fatalf("session score %d, want %d", got, want)
	}
	if sess.StringSubstring(0, len(b)) != sess.Score() {
		t.Fatal("full StringSubstring disagrees with Score")
	}

	kind, err := semilocal.ParseQueryKind("best-window")
	if err != nil || kind != semilocal.QueryBestWindow {
		t.Fatalf("ParseQueryKind = %v, %v", kind, err)
	}
	res := e.BatchSolve(ctx, []semilocal.BatchRequest{
		{A: a, B: b, Kind: semilocal.QueryScore},
		{A: a, B: b, Kind: semilocal.QueryWindows, Width: 3},
		{A: a, B: b, Kind: kind, Width: 3},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if res[0].Score != sess.Score() {
		t.Fatal("batch score disagrees with session")
	}
	if res[2].Score != res[1].Windows[res[2].From] {
		t.Fatal("best-window disagrees with sweep")
	}
	snap := e.Stats()
	if snap["cache_hits"] < 3 || snap["cache_misses"] != 1 {
		t.Fatalf("stats = %v, want one miss and hits for the rest", snap)
	}

	// NewSession works without an engine.
	k, err := semilocal.Solve(a, b, semilocal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if semilocal.NewSession(k).Score() != sess.Score() {
		t.Fatal("direct session disagrees with engine session")
	}
}
