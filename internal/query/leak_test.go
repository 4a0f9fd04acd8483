package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
)

// TestShutdownNoLeaks soaks a traced engine with batches whose contexts
// are cancelled mid-flight, then verifies the engine winds down clean:
// the goroutine count returns to baseline (detached solver goroutines
// finish and exit; nothing blocks forever on an abandoned flight) and
// every stage span opened by a worker or a solver was closed — no
// dangling timers even when every waiter gave up.
func TestShutdownNoLeaks(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	rec := obs.New()
	e := NewEngine(Options{
		Workers:    4,
		MaxKernels: 8,
		Obs:        rec,
		Config:     core.Config{Algorithm: core.AntidiagBranchless},
	})
	for round := 0; round < 25; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		reqs := make([]Request, 6)
		for i := range reqs {
			// Fresh pairs each round so most requests start real solves.
			a := []byte(fmt.Sprintf("abracadabra-%d-%d-padding-padding", round, i))
			b := []byte(fmt.Sprintf("alakazam-%d-%d-padding-padding-pad", round, i))
			reqs[i] = Request{A: a, B: b, Kind: Score, Timeout: time.Microsecond}
		}
		if round%2 == 0 {
			cancel() // half the batches run on an already-dead context
		}
		e.BatchSolve(ctx, reqs)
		cancel()
	}
	e.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		open := rec.OpenSpans()
		if now <= base && open == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("leak after shutdown: goroutines %d (baseline %d), open spans %d\n%s",
				now, base, open, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAbandonedFlightReapedAndCached is the regression test for the
// detached-solver audit: when every waiter of an in-flight solve
// cancels its context before the solve finishes, the solver goroutine
// must still run to completion, publish its session into the cache
// (preserving amortization: the next request is a hit, not a
// re-solve), and exit — the goroutine count returns to baseline.
func TestAbandonedFlightReapedAndCached(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	// An injected solve-start latency guarantees the solve outlives
	// every waiter's 2ms budget without any scheduling luck.
	inj, err := chaos.New(chaos.Config{Seed: 31, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 1000, Latency: 30 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 3, Chaos: inj})

	a, b := []byte("abandoned-flight-a"), []byte("abandoned-flight-b")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	reqs := []Request{ // three waiters join one flight, all abandon it
		{A: a, B: b, Kind: Score},
		{A: a, B: b, Kind: Score},
		{A: a, B: b, Kind: Score},
	}
	for i, r := range e.BatchSolve(ctx, reqs) {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("request %d: err = %v, want DeadlineExceeded", i, r.Err)
		}
	}
	cancel()

	// The abandoned solve still completes and is cached.
	deadline := time.Now().Add(5 * time.Second)
	for e.CachedKernels() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight's result never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	// Exactly one solve started; later waiters either joined the flight
	// or failed fast on the expired context — never a second solve.
	if got := e.Stats()["cache_misses"]; got != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight held)", got)
	}
	// A later request with a live context is a pure hit: the abandoned
	// work was not wasted.
	res := e.BatchSolve(context.Background(), reqs[:1])
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if got := e.Stats()["cache_misses"]; got != 1 {
		t.Fatalf("follow-up request re-solved: misses = %d, want 1", got)
	}
	e.Close()

	// And the solver goroutine is gone.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("solver goroutine leaked: %d goroutines (baseline %d)\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEngineStageSplit checks the engine-level stage accounting on a
// deterministic workload: a cold batch records misses and solves, a
// warm repeat records only hits, and the request histogram covers every
// request in both.
func TestEngineStageSplit(t *testing.T) {
	rec := obs.New()
	e := NewEngine(Options{Workers: 2, Obs: rec})
	defer e.Close()

	a, b := []byte("the quick brown fox"), []byte("jumps over the lazy dog")
	reqs := []Request{
		{A: a, B: b, Kind: Score},
		{A: a, B: b, Kind: Windows, Width: 5},
	}
	for _, r := range e.BatchSolve(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s := rec.Snapshot()
	if s.Stages[obs.StageSolve].Count != 1 {
		t.Fatalf("cold batch: solve count = %d, want 1 (singleflight)", s.Stages[obs.StageSolve].Count)
	}
	// The cache holds solved kernels as they are: no wrap, no prepare.
	if s.Stages[obs.StagePrepare].Count != 0 {
		t.Fatalf("cold batch: prepare count = %d, want 0", s.Stages[obs.StagePrepare].Count)
	}
	if got := s.Stages[obs.StageCacheHit].Count + s.Stages[obs.StageCacheMiss].Count; got != 2 {
		t.Fatalf("cold batch: hit+miss observations = %d, want 2", got)
	}
	if s.Stages[obs.StageRequest].Count != 2 || s.Stages[obs.StageQueueWait].Count != 2 {
		t.Fatalf("cold batch: request/queue_wait counts = %d/%d, want 2/2",
			s.Stages[obs.StageRequest].Count, s.Stages[obs.StageQueueWait].Count)
	}

	for _, r := range e.BatchSolve(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	s2 := rec.Snapshot()
	if s2.Stages[obs.StageSolve].Count != 1 {
		t.Fatalf("warm batch re-solved: count = %d", s2.Stages[obs.StageSolve].Count)
	}
	if s2.Stages[obs.StageCacheHit].Count != s.Stages[obs.StageCacheHit].Count+2 {
		t.Fatalf("warm batch: hit count = %d, want %d",
			s2.Stages[obs.StageCacheHit].Count, s.Stages[obs.StageCacheHit].Count+2)
	}
	if s2.Stages[obs.StageQuery].Count != 4 {
		t.Fatalf("query count = %d, want 4", s2.Stages[obs.StageQuery].Count)
	}
	if rec.OpenSpans() != 0 {
		t.Fatalf("%d spans left open", rec.OpenSpans())
	}
	// The engine still has a solve in the histogram; request spans must
	// dominate the per-request wall time (request ≥ queue_wait for every
	// request by construction).
	if s2.Stages[obs.StageRequest].Sum < s2.Stages[obs.StageQueueWait].Sum {
		t.Fatal("request e2e time smaller than queue wait")
	}
}
