package combing

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
)

// swarConfigs are the AntidiagSWAR runs every edge test checks: the
// sequential loop, and parallel splits with MinChunk 1 so that chunks
// are odd-sized and diagonals shorter than a word still fan out.
var swarConfigs = []struct {
	name string
	opt  Options
}{
	{"seq", Options{}},
	{"workers2", Options{Workers: 2, MinChunk: 1}},
	{"workers3", Options{Workers: 3, MinChunk: 1}},
}

// checkSWAR compares every swarConfigs run of AntidiagSWAR on (a, b)
// against RowMajor and the 32-bit branchless Antidiag.
func checkSWAR(t *testing.T, label string, a, b []byte) {
	t.Helper()
	want := RowMajor(a, b)
	if got := Antidiag(a, b, Options{Branchless: true}); !got.Equal(want) {
		t.Fatalf("%s: Antidiag{Branchless} disagrees with RowMajor", label)
	}
	for _, c := range swarConfigs {
		if got := AntidiagSWAR(a, b, c.opt); !got.Equal(want) {
			t.Fatalf("%s (m=%d n=%d) %s: AntidiagSWAR disagrees with RowMajor:\ngot  %v\nwant %v",
				label, len(a), len(b), c.name, got.RowToCol(), want.RowToCol())
		}
	}
}

// TestFitsSWARBoundary pins the SWAR eligibility decision at its edge:
// strand indices run 0 … m+n-1, so m+n == MaxSWAR keeps every index
// below 2¹⁵ and one more strand does not.
func TestFitsSWARBoundary(t *testing.T) {
	cases := []struct {
		m, n int
		want bool
	}{
		{MaxSWAR / 2, MaxSWAR / 2, true},
		{MaxSWAR / 2, MaxSWAR/2 + 1, false},
		{1, MaxSWAR - 1, true},
		{2, MaxSWAR - 1, false},
		{4096, 4096, true},
		{0, 0, true},
	}
	for _, c := range cases {
		if got := FitsSWAR(c.m, c.n); got != c.want {
			t.Errorf("FitsSWAR(%d, %d) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

// TestAntidiagSWARAtExactBoundary combs m+n == MaxSWAR, where the
// largest strand index 2¹⁵−1 fills a lane up to its guard bit. The thin
// shapes keep the quadratic work small while every track is touched;
// m > n takes the transposed path.
func TestAntidiagSWARAtExactBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 3, 8} {
		a := randString(rng, m, 2)
		b := randString(rng, MaxSWAR-m, 2)
		checkSWAR(t, fmt.Sprintf("boundary %dx%d", m, len(b)), a, b)
		checkSWAR(t, fmt.Sprintf("boundary %dx%d", len(b), m), b, a)
	}
}

// TestAntidiagSWARPastBoundaryPanics pins the panic one strand past the
// edge.
func TestAntidiagSWARPastBoundaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AntidiagSWAR accepted m+n == MaxSWAR+1")
		}
	}()
	AntidiagSWAR(make([]byte, 2), make([]byte, MaxSWAR-1), Options{})
}

// TestAntidiagSWARAllEqual: every cell matches, so every lane swaps
// whatever the guard-bit comparison says.
func TestAntidiagSWARAllEqual(t *testing.T) {
	for _, s := range [][2]int{{1, 1}, {4, 4}, {7, 13}, {33, 64}, {64, 33}, {100, 100}} {
		checkSWAR(t, "all-equal", bytes.Repeat([]byte{'g'}, s[0]), bytes.Repeat([]byte{'g'}, s[1]))
		checkSWAR(t, "all-zero", make([]byte, s[0]), make([]byte, s[1]))
	}
}

// TestAntidiagSWARExtremeBytes mixes 0x00 and 0xFF (σ = 256): x = a ⊕ b
// reaches 0xFF, the largest value the ne lane test must see as nonzero
// without carrying into the guard bit, and every other byte value shows
// up in the random pairs.
func TestAntidiagSWARExtremeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		m, n := 1+rng.Intn(70), 1+rng.Intn(70)
		a, b := make([]byte, m), make([]byte, n)
		for i := range a {
			a[i] = byte(rng.Intn(2)) * 0xFF
		}
		for j := range b {
			b[j] = byte(rng.Intn(2)) * 0xFF
		}
		checkSWAR(t, "0x00/0xFF", a, b)
		checkSWAR(t, "sigma256", randString(rng, m, 256), randString(rng, n, 256))
	}
}

// TestAntidiagSWARSmallShapes covers every m, n ∈ 1..9, where a diagonal
// is at most two words plus a tail and most run only the scalar tail.
func TestAntidiagSWARSmallShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 9; n++ {
			for _, sigma := range []int{1, 2, 4} {
				checkSWAR(t, fmt.Sprintf("σ=%d", sigma), randString(rng, m, sigma), randString(rng, n, sigma))
			}
		}
	}
}

// TestAntidiagSWARSharedPool runs the parallel split on a caller-owned
// pool, the way a long-lived engine would pass one in.
func TestAntidiagSWARSharedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a, b := randString(rng, 97, 4), randString(rng, 211, 4)
	want := RowMajor(a, b)
	for _, workers := range []int{2, 3} {
		pool := parallel.NewPool(workers)
		defer pool.Close()
		if got := AntidiagSWAR(a, b, Options{Workers: workers, MinChunk: 1, Pool: pool}); !got.Equal(want) {
			t.Fatalf("AntidiagSWAR on a shared %d-worker pool disagrees with RowMajor", workers)
		}
	}
}

// TestAntidiagSWARObservesLikeAntidiag: the SWAR loop records the same
// stages and counters as the 32-bit branchless loop it replaces, so a
// trace cannot tell which one ran except by its timings.
func TestAntidiagSWARObservesLikeAntidiag(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a, b := randString(rng, 130, 4), randString(rng, 77, 4)
	snapshot := func(solve func(rec *obs.Recorder) perm.Permutation) obs.Snapshot {
		rec := obs.New()
		solve(rec)
		return rec.Snapshot()
	}
	want := snapshot(func(rec *obs.Recorder) perm.Permutation {
		return Antidiag(a, b, Options{Branchless: true, Rec: rec})
	})
	got := snapshot(func(rec *obs.Recorder) perm.Permutation {
		return AntidiagSWAR(a, b, Options{Rec: rec})
	})
	if got.Counters != want.Counters {
		t.Fatalf("AntidiagSWAR counters %v, Antidiag %v", got.Counters, want.Counters)
	}
	for st := range want.Stages {
		if got.Stages[st].Count != want.Stages[st].Count {
			t.Errorf("stage %d recorded %d spans, Antidiag %d", st, got.Stages[st].Count, want.Stages[st].Count)
		}
	}
}

func BenchmarkAntidiagSWAR(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		rng := rand.New(rand.NewSource(1))
		x, y := randString(rng, n, 4), randString(rng, n, 4)
		b.Run(fmt.Sprintf("32bit/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Antidiag(x, y, Options{Branchless: true})
			}
		})
		b.Run(fmt.Sprintf("swar/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AntidiagSWAR(x, y, Options{})
			}
		})
	}
}
