// Benchmark regression lane for the serving layer: cached vs uncached
// query paths. `make bench-smoke` runs every benchmark once
// (-benchtime=1x) in CI to catch compile and allocation rot; full runs
// quantify the cache-hit amortization documented in EXPERIMENTS.md —
// the headline comparison is BenchmarkUncachedSolveQuery4096 against
// BenchmarkCachedSessionQuery4096 (required margin: ≥ 10x).
package query_test

import (
	"context"
	"math/rand"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/query"
)

const benchN = 4096

func benchPair(n int) (a, b []byte) {
	rng := rand.New(rand.NewSource(0xbe7c))
	a = make([]byte, n)
	b = make([]byte, n)
	for i := range a {
		a[i] = byte(rng.Intn(4))
		b[i] = byte(rng.Intn(4))
	}
	return a, b
}

var benchCfg = core.Config{Algorithm: core.AntidiagBranchless}

var sink int

// BenchmarkUncachedSolveQuery4096 is the naive serving strategy this
// package exists to kill: every query re-runs the O(mn) kernel solve.
func BenchmarkUncachedSolveQuery4096(b *testing.B) {
	a, s := benchPair(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := core.Solve(a, s, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = query.NewSession(k).StringSubstring(benchN/4, benchN-benchN/4)
	}
}

// BenchmarkCachedSessionQuery4096 is the engine's hit path: Acquire
// finds the resident session and one O(log n) dominance query answers.
func BenchmarkCachedSessionQuery4096(b *testing.B) {
	a, s := benchPair(benchN)
	e := query.NewEngine(query.Options{Config: benchCfg})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Acquire(ctx, a, s); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := e.Acquire(ctx, a, s)
		if err != nil {
			b.Fatal(err)
		}
		sink = sess.StringSubstring(benchN/4, benchN-benchN/4)
	}
}

// BenchmarkCachedWindowSweep4096 amortizes a full n-window sweep over
// the cached kernel (O(1) per window, no dominance queries).
func BenchmarkCachedWindowSweep4096(b *testing.B) {
	a, s := benchPair(benchN)
	e := query.NewEngine(query.Options{Config: benchCfg})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Acquire(ctx, a, s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := e.Acquire(ctx, a, s)
		if err != nil {
			b.Fatal(err)
		}
		sink = sess.WindowScores(benchN / 2)[0]
	}
}

// BenchmarkBatchSolveDuplicates64 measures the batch front end on a
// warm cache: 64 requests over one pair, fanned across 4 workers.
func BenchmarkBatchSolveDuplicates64(b *testing.B) {
	a, s := benchPair(512)
	e := query.NewEngine(query.Options{Config: benchCfg, Workers: 4})
	defer e.Close()
	ctx := context.Background()
	reqs := make([]query.Request, 64)
	for i := range reqs {
		reqs[i] = query.Request{A: a, B: s, Kind: query.StringSubstring, From: i, To: 256 + i}
	}
	if res := e.BatchSolve(ctx, reqs[:1]); res[0].Err != nil {
		b.Fatal(res[0].Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.BatchSolve(ctx, reqs)
		sink = res[63].Score
	}
}

// BenchmarkSessionPrepare4096 isolates the one-off preprocessing cost a
// cache miss pays on top of the solve (dominance-tree construction).
func BenchmarkSessionPrepare4096(b *testing.B) {
	a, s := benchPair(benchN)
	k, err := core.Solve(a, s, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	data, err := k.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unmarshal yields a kernel without a dominance tree, so each
		// iteration pays the full Prepare cost.
		fresh, err := core.UnmarshalKernel(data)
		if err != nil {
			b.Fatal(err)
		}
		sink = query.NewSession(fresh).StringSubstring(0, benchN)
	}
}

// BenchmarkKernelFirstQuery2048 is the cost of a kernel's first query,
// the one query a never-seen pair gets on a cold cache: "on-demand"
// answers it by direct counting on an unprepared kernel (what the
// engine cache does), "prepare" builds the dominance tree first (what
// NewSession does). Each iteration wraps the solved permutation in a
// fresh kernel, so no iteration inherits an earlier one's tree.
func BenchmarkKernelFirstQuery2048(b *testing.B) {
	const n = 2048
	a, s := benchPair(n)
	k, err := core.Solve(a, s, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("on-demand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = core.NewKernel(k.Permutation(), n, n).StringSubstring(n/4, n-n/4)
		}
	})
	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = core.NewKernel(k.Permutation(), n, n).Prepare().StringSubstring(n/4, n-n/4)
		}
	})
}
