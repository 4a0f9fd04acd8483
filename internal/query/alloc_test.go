//go:build !race

// The serving-layer half of the zero-allocation guard (see
// internal/obs/alloc_test.go for the primitive half): threading the
// instrumentation through Solve and the Session query hot paths must
// not add a single allocation when tracing is disabled — and the
// cached-acquire path must not allocate more when tracing is on either.
package query

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"semilocal/internal/benchkit"
	"semilocal/internal/core"
	"semilocal/internal/obs"
)

// TestSessionQueryHotPathZeroAllocs: prepared-session queries are pure
// reads of the dominance structure; they must never allocate.
func TestSessionQueryHotPathZeroAllocs(t *testing.T) {
	k, err := core.Solve([]byte("mississippi"), []byte("missouri river basin"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(k)
	n := sess.N()
	for name, query := range map[string]func(){
		"Score":           func() { sess.Score() },
		"StringSubstring": func() { sess.StringSubstring(2, n-2) },
		"SuffixPrefix":    func() { sess.SuffixPrefix(3, n/2) },
	} {
		if got := testing.AllocsPerRun(1000, query); got != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, got)
		}
	}
}

// TestBestWindowSteadyStateZeroAllocs: BestWindow reduces a full window
// sweep and discards it; the sweep buffer must come from the shared
// recycler so the steady state allocates nothing. (WindowScores proper
// still allocates — its result escapes to the caller.)
func TestBestWindowSteadyStateZeroAllocs(t *testing.T) {
	k, err := core.Solve([]byte("mississippi"), []byte("missouri river basin"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(k)
	sess.BestWindow(5) // warm the recycler
	if got := testing.AllocsPerRun(1000, func() { sess.BestWindow(5) }); got != 0 {
		t.Errorf("BestWindow allocates %v times per run, want 0", got)
	}
}

// TestSolveObservedDisabledAddsZeroAllocs: a nil recorder must leave
// Solve's allocation profile untouched — SolveWith with a nil recorder
// and Solve run the identical path, spans included, without an extra
// allocation.
func TestSolveObservedDisabledAddsZeroAllocs(t *testing.T) {
	a, b := []byte("abcabcabcabcabcabcabcabc"), []byte("cbacbacbacbacbacba")
	cfg := core.Config{Algorithm: core.AntidiagBranchless}
	baseline := testing.AllocsPerRun(200, func() {
		if _, err := core.Solve(a, b, cfg); err != nil {
			t.Fatal(err)
		}
	})
	disabled := testing.AllocsPerRun(200, func() {
		if _, err := core.SolveWith(a, b, cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if disabled != baseline {
		t.Fatalf("disabled instrumentation changed Solve allocs: %v -> %v", baseline, disabled)
	}
}

// TestAcquireHitPathAllocParity: the cached-session fast path performs
// the same number of allocations whether tracing is disabled or
// enabled — recording a hit is a clock read and atomic bumps, nothing
// on the heap.
func TestAcquireHitPathAllocParity(t *testing.T) {
	a, b := []byte("gattacagattaca"), []byte("tacatacatacata")
	ctx := context.Background()

	measure := func(rec *obs.Recorder) float64 {
		e := NewEngine(Options{Obs: rec})
		defer e.Close()
		if _, err := e.Acquire(ctx, a, b); err != nil { // warm the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(1000, func() {
			sess, err := e.Acquire(ctx, a, b)
			if err != nil {
				t.Fatal(err)
			}
			sess.Score()
		})
	}
	off := measure(nil)
	on := measure(obs.New())
	if on != off {
		t.Fatalf("traced hit path allocates %v per run vs %v untraced; tracing must add 0", on, off)
	}
}

// TestAcquireHitCopiesNothing: a warmed hit hashes the pair and looks
// it up; it never copies the pair (only a miss does, for its detached
// solve). The one allocation allowed is the hash state.
func TestAcquireHitCopiesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := make([]byte, 1024), make([]byte, 1024)
	for i := range a {
		a[i], b[i] = byte('a'+rng.Intn(4)), byte('a'+rng.Intn(4))
	}
	ctx := context.Background()
	e := NewEngine(Options{})
	defer e.Close()
	if _, err := e.Acquire(ctx, a, b); err != nil { // warm the cache
		t.Fatal(err)
	}
	benchkit.AssertMaxAllocs(t, "Engine.Acquire hit, 1 KiB + 1 KiB", 1, 200, func() {
		if _, err := e.Acquire(ctx, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSolveInjectedDisabledAddsZeroAllocs: a nil injector must leave
// the solve path's allocation profile untouched — consulting disabled
// chaos is a nil check, never a heap object.
func TestSolveInjectedDisabledAddsZeroAllocs(t *testing.T) {
	a, b := []byte("abcabcabcabcabcabcabcabc"), []byte("cbacbacbacbacbacba")
	cfg := core.Config{Algorithm: core.AntidiagBranchless}
	baseline := testing.AllocsPerRun(200, func() {
		if _, err := core.Solve(a, b, cfg); err != nil {
			t.Fatal(err)
		}
	})
	disabled := testing.AllocsPerRun(200, func() {
		if _, err := core.SolveWith(a, b, cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if disabled != baseline {
		t.Fatalf("disabled chaos changed Solve allocs: %v -> %v", baseline, disabled)
	}
}

// TestHardenedBatchHotPathAllocParity: turning the hardening knobs on —
// admission control, a retry policy, a degradation threshold — must not
// add a single allocation to the fault-free cached-query path of
// BatchSolve. The resilience machinery is branches and atomics; only
// actual faults pay.
func TestHardenedBatchHotPathAllocParity(t *testing.T) {
	a, b := []byte("gattacagattaca"), []byte("tacatacatacata")
	ctx := context.Background()

	measure := func(opts Options) float64 {
		e := NewEngine(opts)
		defer e.Close()
		reqs := []Request{{A: a, B: b, Kind: Score}}
		if res := e.BatchSolve(ctx, reqs); res[0].Err != nil { // warm the cache
			t.Fatal(res[0].Err)
		}
		return testing.AllocsPerRun(1000, func() {
			if res := e.BatchSolve(ctx, reqs); res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		})
	}
	plain := measure(Options{})
	hardened := measure(Options{
		MaxQueue:     64,
		Retry:        RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
		DegradeBelow: time.Microsecond,
	})
	if hardened != plain {
		t.Fatalf("hardened fault-free batch allocates %v per run vs %v plain; knobs must add 0", hardened, plain)
	}
}

// TestStreamSessionIsPublishedKernel: a stream group's query handle is
// the kernel its pattern's latest generation published, prepared — no
// per-generation wrapper — and repeated queries on one generation
// allocate nothing, so no session cache is needed to keep them cheap.
func TestStreamSessionIsPublishedKernel(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	sg, err := e.OpenStreamGroup([][]byte{[]byte("gattaca"), []byte("tac"), []byte("gg")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Append(context.Background(), []byte("cattagattacagg")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sg.Patterns(); i++ {
		k := sg.Session(i)
		if k != sg.g.Snapshot(i).Kernel {
			t.Fatalf("pattern %d: Session is not the published kernel", i)
		}
		if !k.Prepared() {
			t.Fatalf("pattern %d: published kernel is not prepared", i)
		}
		n := k.N()
		for _, req := range []Request{
			{Kind: Score},
			{Kind: StringSubstring, From: 1, To: n - 1},
			{Kind: SuffixPrefix, From: 2, To: n / 2},
			{Kind: BestWindow, Width: 4},
		} {
			want := Answer(k, req) // also warms BestWindow's recycler
			var got Result
			if allocs := testing.AllocsPerRun(200, func() { got = sg.Query(i, req) }); allocs != 0 {
				t.Errorf("pattern %d %s: Query allocates %v times per run, want 0", i, req.Kind, allocs)
			}
			if got.Err != nil || got.Score != want.Score || got.From != want.From {
				t.Errorf("pattern %d %s: Query = %+v, Answer = %+v", i, req.Kind, got, want)
			}
		}
	}
}
