// White-box engine tests: singleflight accounting, LRU eviction, batch
// semantics, cancellation, and the concurrency soak that make
// test-race runs with the race detector enabled.
package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/oracle"
)

// install wraps the engine's solver so tests can count and gate real
// solves.
func install(e *Engine, solve func(a, b []byte, cfg core.Config) (*core.Kernel, error)) {
	e.cache.solve = solve
}

func TestAcquireHitsAndMisses(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	var solves atomic.Int64
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		solves.Add(1)
		return inner(a, b, cfg)
	})
	ctx := context.Background()
	a, b := []byte("abcabba"), []byte("cbabac")
	s1, err := e.Acquire(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Acquire(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second Acquire did not reuse the cached session")
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
	// A different config is the same cache key: it only decides how a
	// miss would be solved.
	s3, err := e.acquire(ctx, Request{A: a, B: b}.WithKey(), core.Config{Algorithm: core.Antidiag})
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatal("a different config missed the cached session")
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("solves after config change = %d, want 1", got)
	}
	snap := e.Stats()
	if snap["cache_hits"] != 2 || snap["cache_misses"] != 1 {
		t.Fatalf("stats = %v, want 2 hits / 1 miss", snap)
	}
	if e.CachedKernels() != 1 {
		t.Fatalf("CachedKernels = %d, want 1", e.CachedKernels())
	}
	if snap["cache_bytes"] <= 0 {
		t.Fatalf("cache_bytes gauge = %d, want positive", snap["cache_bytes"])
	}
}

// TestOneKernelAcrossConfigs: the cache key is the pair's content
// alone, so acquiring one pair under each of the seven algorithms solves
// once and every answer comes from that one kernel.
func TestOneKernelAcrossConfigs(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	var solves atomic.Int64
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		solves.Add(1)
		return inner(a, b, cfg)
	})
	a, b := []byte("gattacagattaca"), []byte("tacatacgattacata")
	req := Request{A: a, B: b}.WithKey()
	for _, cfg := range []core.Config{
		{Algorithm: core.RowMajor},
		{Algorithm: core.Antidiag, Workers: 2},
		{Algorithm: core.AntidiagBranchless, Workers: 2},
		{Algorithm: core.LoadBalanced, Workers: 2},
		{Algorithm: core.Recursive},
		{Algorithm: core.Hybrid, Workers: 2},
		{Algorithm: core.GridReduction, Workers: 2},
	} {
		sess, err := e.acquire(context.Background(), req, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got, want := sess.Score(), oracle.Score(a, b); got != want {
			t.Fatalf("%v: Score = %d, oracle %d", cfg, got, want)
		}
		if got, want := sess.StringSubstring(3, 11), oracle.StringSubstring(a, b, 3, 11); got != want {
			t.Fatalf("%v: StringSubstring = %d, oracle %d", cfg, got, want)
		}
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("solves = %d across seven configs, want 1", got)
	}
	if got := e.CachedKernels(); got != 1 {
		t.Fatalf("CachedKernels = %d, want 1", got)
	}
}

// TestDegradedRequestHitsWarmKernel: degradation only changes how a miss
// is solved. A near-deadline request for a pair a normal request already
// cached hits that kernel instead of solving the sequential variant.
func TestDegradedRequestHitsWarmKernel(t *testing.T) {
	e := NewEngine(Options{
		Config:       core.Config{Algorithm: core.LoadBalanced, Workers: 2},
		DegradeBelow: time.Hour,
	})
	defer e.Close()
	a, b := []byte("gattacagattaca"), []byte("tacatacgattacata")
	ctx := context.Background()
	if res := e.BatchSolve(ctx, []Request{{A: a, B: b, Kind: Score}}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	warm := e.Stats()
	res := e.BatchSolve(ctx, []Request{{A: a, B: b, Kind: Score, Timeout: time.Minute}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if want := oracle.Score(a, b); res[0].Score != want {
		t.Fatalf("degraded Score = %d, oracle %d", res[0].Score, want)
	}
	snap := e.Stats()
	if snap["requests_degraded"] != 1 {
		t.Fatalf("requests_degraded = %d, want 1", snap["requests_degraded"])
	}
	if snap["cache_misses"] != 1 || snap["cache_hits"] != warm["cache_hits"]+1 {
		t.Fatalf("stats = %v, want the degraded request to hit the one solved kernel", snap)
	}
}

// TestAbandonedMissOwnsItsPair: a caller whose wait times out may reuse
// its buffers at once; the detached solve must still cache the kernel of
// the bytes it was asked about.
func TestAbandonedMissOwnsItsPair(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	gate := make(chan struct{})
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		<-gate
		return inner(a, b, cfg)
	})
	origA, origB := []byte("gattacagattaca"), []byte("tacatacgattacata")
	a, b := append([]byte(nil), origA...), append([]byte(nil), origB...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.Acquire(ctx, a, b); err != context.DeadlineExceeded {
		t.Fatalf("Acquire = %v, want deadline exceeded", err)
	}
	for i := range a {
		a[i] = 'x'
	}
	for i := range b {
		b[i] = 'y'
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for e.CachedKernels() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned solve never published")
		}
		time.Sleep(time.Millisecond)
	}
	sess, err := e.Acquire(context.Background(), origA, origB)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats()["cache_hits"] != 1 {
		t.Fatalf("stats = %v, want the original pair to hit the abandoned solve", e.Stats())
	}
	n := len(origB)
	for l := 0; l <= n; l++ {
		for r := l; r <= n; r++ {
			if got, want := sess.StringSubstring(l, r), oracle.StringSubstring(origA, origB, l, r); got != want {
				t.Fatalf("StringSubstring(%d,%d) = %d, oracle %d", l, r, got, want)
			}
		}
	}
}

// TestSingleflightDedup gates the solver on a channel, piles G waiters
// onto one cold key, and asserts exactly one solve ran while every
// waiter got the same session. Waiters register in the deduped counter
// before blocking, so polling that counter makes the schedule
// deterministic rather than sleep-based.
func TestSingleflightDedup(t *testing.T) {
	const waiters = 15
	e := NewEngine(Options{})
	defer e.Close()
	var solves atomic.Int64
	gate := make(chan struct{})
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		solves.Add(1)
		<-gate
		return inner(a, b, cfg)
	})

	a, b := []byte("gattaca"), []byte("tacgattaca")
	sessions := make([]*Session, waiters+1)
	var wg sync.WaitGroup
	for g := 0; g <= waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := e.Acquire(context.Background(), a, b)
			if err != nil {
				t.Error(err)
				return
			}
			sessions[g] = s
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats()["cache_deduped"] < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined the flight", e.Stats()["cache_deduped"])
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := solves.Load(); got != 1 {
		t.Fatalf("solves = %d, want 1 (singleflight broken)", got)
	}
	for g := 1; g < len(sessions); g++ {
		if sessions[g] != sessions[0] {
			t.Fatal("waiters received different sessions")
		}
	}
	snap := e.Stats()
	if snap["cache_misses"] != 1 || snap["cache_deduped"] != waiters {
		t.Fatalf("stats = %v, want 1 miss / %d deduped", snap, waiters)
	}
}

func TestSolveErrorPropagatesAndIsNotCached(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	var solves atomic.Int64
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		solves.Add(1)
		return nil, fmt.Errorf("boom %d", solves.Load())
	})
	ctx := context.Background()
	if _, err := e.Acquire(ctx, []byte("x"), []byte("y")); err == nil {
		t.Fatal("solve error swallowed")
	}
	if _, err := e.Acquire(ctx, []byte("x"), []byte("y")); err == nil || err.Error() != "boom 2" {
		t.Fatalf("failed solve was cached: err = %v", err)
	}
	if e.CachedKernels() != 0 {
		t.Fatal("failed solve left a resident entry")
	}
}

func TestEvictionKeepsLRUBound(t *testing.T) {
	// One shard makes the LRU order observable; capacity 2 forces churn.
	e := newEngine(Options{MaxKernels: 2}, 1)
	defer e.Close()
	ctx := context.Background()
	pairs := [][2]string{{"aa", "ba"}, {"bb", "cb"}, {"cc", "dc"}, {"dd", "ed"}}
	for _, p := range pairs {
		if _, err := e.Acquire(ctx, []byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.CachedKernels(); got != 2 {
		t.Fatalf("resident sessions = %d, want 2", got)
	}
	snap := e.Stats()
	if snap["cache_evictions"] != 2 {
		t.Fatalf("evictions = %d, want 2", snap["cache_evictions"])
	}
	// The two most recent pairs are hits; the first two were evicted.
	hitsBefore := e.Stats()["cache_hits"]
	for _, p := range pairs[2:] {
		if _, err := e.Acquire(ctx, []byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats()["cache_hits"] - hitsBefore; got != 2 {
		t.Fatalf("recent pairs gave %d hits, want 2", got)
	}
	if e.Stats()["cache_bytes"] <= 0 {
		t.Fatal("cache_bytes gauge went non-positive under eviction")
	}
}

func TestAcquireRespectsContext(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Acquire(cancelled, []byte("x"), []byte("y")); err != context.Canceled {
		t.Fatalf("pre-cancelled Acquire = %v, want context.Canceled", err)
	}

	// A waiter whose context dies while another goroutine holds the
	// flight must return promptly with the context error.
	gate := make(chan struct{})
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		<-gate
		return inner(a, b, cfg)
	})
	go e.Acquire(context.Background(), []byte("p"), []byte("q"))
	for e.Stats()["cache_misses"] == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := e.Acquire(ctx, []byte("p"), []byte("q")); err != context.DeadlineExceeded {
		t.Fatalf("waiter error = %v, want deadline exceeded", err)
	}
	close(gate)
}

func TestBatchSolveValidatesAndAnswers(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()
	a, b := []byte("gattaca"), []byte("tacgattaca")
	reqs := []Request{
		{A: a, B: b, Kind: Score},
		{A: a, B: b, Kind: StringSubstring, From: 2, To: 9},
		{A: a, B: b, Kind: SubstringString, From: 1, To: 6},
		{A: a, B: b, Kind: SuffixPrefix, From: 2, To: 8},
		{A: a, B: b, Kind: PrefixSuffix, From: 3, To: 2},
		{A: a, B: b, Kind: Windows, Width: 5},
		{A: a, B: b, Kind: BestWindow, Width: 5},
		{A: a, B: b, Kind: StringSubstring, From: 5, To: 99}, // invalid
		{A: a, B: b, Kind: Kind(42)},                         // unknown
	}
	res := e.BatchSolve(context.Background(), reqs)
	if res[0].Score != oracle.Score(a, b) {
		t.Fatalf("Score = %d, oracle %d", res[0].Score, oracle.Score(a, b))
	}
	if want := oracle.StringSubstring(a, b, 2, 9); res[1].Score != want {
		t.Fatalf("StringSubstring = %d, oracle %d", res[1].Score, want)
	}
	if want := oracle.SubstringString(a, b, 1, 6); res[2].Score != want {
		t.Fatalf("SubstringString = %d, oracle %d", res[2].Score, want)
	}
	if want := oracle.SuffixPrefix(a, b, 2, 8); res[3].Score != want {
		t.Fatalf("SuffixPrefix = %d, oracle %d", res[3].Score, want)
	}
	if want := oracle.PrefixSuffix(a, b, 3, 2); res[4].Score != want {
		t.Fatalf("PrefixSuffix = %d, oracle %d", res[4].Score, want)
	}
	for l, sc := range res[5].Windows {
		if want := oracle.StringSubstring(a, b, l, l+5); sc != want {
			t.Fatalf("Windows[%d] = %d, oracle %d", l, sc, want)
		}
	}
	if res[6].Score != res[5].Windows[res[6].From] {
		t.Fatal("BestWindow disagrees with the sweep")
	}
	if res[7].Err == nil || res[8].Err == nil {
		t.Fatal("invalid requests did not error")
	}
	// Validation failures must not touch the cache.
	if e.Stats()["cache_misses"] != 1 {
		t.Fatalf("misses = %d, want exactly 1 for one pair", e.Stats()["cache_misses"])
	}
}

func TestBatchSolvePerRequestTimeout(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()
	gate := make(chan struct{})
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		if len(a) == 0 { // only the slow pair blocks
			<-gate
		}
		return inner(a, b, cfg)
	})
	defer close(gate)
	reqs := []Request{
		{A: nil, B: []byte("slow"), Kind: Score, Timeout: 20 * time.Millisecond},
		{A: []byte("fast"), B: []byte("fastb"), Kind: Score},
	}
	res := e.BatchSolve(context.Background(), reqs)
	if res[0].Err != context.DeadlineExceeded {
		t.Fatalf("slow request error = %v, want deadline exceeded", res[0].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("fast request failed: %v", res[1].Err)
	}
}

func TestEngineClosed(t *testing.T) {
	e := NewEngine(Options{})
	e.Close()
	e.Close() // second Close is a no-op, not a panic
	if _, err := e.Acquire(context.Background(), []byte("x"), []byte("y")); err == nil {
		t.Fatal("Acquire on closed engine succeeded")
	}
	res := e.BatchSolve(context.Background(), make([]Request, 3))
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("result %d on closed engine has no error", i)
		}
	}
}

// soakPairs builds distinct input pairs plus every request kind's
// expected answer computed sequentially on fresh kernels — the ground
// truth the concurrent soak compares against byte for byte.
func soakPairs(t *testing.T, n int) ([][2][]byte, [][]Request, [][]Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x50a4))
	pairs := make([][2][]byte, n)
	for i := range pairs {
		a, b := oracle.RandomPair(rng, 200, 4)
		pairs[i] = [2][]byte{a, b}
	}
	reqSets := make([][]Request, n)
	for i, p := range pairs {
		a, b := p[0], p[1]
		m, nn := len(a), len(b)
		reqSets[i] = []Request{
			{A: a, B: b, Kind: Score},
			{A: a, B: b, Kind: StringSubstring, From: nn / 4, To: nn - nn/4},
			{A: a, B: b, Kind: SubstringString, From: m / 3, To: m - m/3},
			{A: a, B: b, Kind: SuffixPrefix, From: m / 2, To: nn / 2},
			{A: a, B: b, Kind: PrefixSuffix, From: m / 2, To: nn / 3},
			{A: a, B: b, Kind: Windows, Width: nn / 2},
			{A: a, B: b, Kind: BestWindow, Width: nn / 3},
		}
	}
	// Sequential ground truth through a single-worker engine with an
	// unbounded-enough cache.
	seq := NewEngine(Options{MaxKernels: 2 * n})
	defer seq.Close()
	want := make([][]Result, n)
	for i := range reqSets {
		want[i] = seq.BatchSolve(context.Background(), reqSets[i])
		for j, r := range want[i] {
			if r.Err != nil {
				t.Fatalf("sequential ground truth pair %d req %d: %v", i, j, r.Err)
			}
		}
	}
	return pairs, reqSets, want
}

// TestEngineSoak is the concurrency soak required to run under the race
// detector (`make test-race` covers internal/...): many goroutines
// hammer one small-cache engine with overlapping, duplicate, and
// cancelled request batches. It asserts that every completed answer is
// byte-identical to the sequential ground truth, that cancelled batches
// only ever return context errors, that the cache keeps its LRU bound
// under eviction churn (no deadlock — the test finishing is the proof),
// and that the singleflight/stats accounting stays consistent.
func TestEngineSoak(t *testing.T) {
	const (
		nPairs     = 6
		goroutines = 8
		iterations = 30
	)
	_, reqSets, want := soakPairs(t, nPairs)

	e := newEngine(Options{
		Workers:    4,
		MaxKernels: 3, // far below the working set: constant eviction churn
	}, 2)
	defer e.Close()
	var solves atomic.Int64
	inner := e.cache.solve
	install(e, func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
		solves.Add(1)
		return inner(a, b, cfg)
	})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iterations; it++ {
				// Compose a batch of whole request sets in random order, with
				// duplicates.
				var batch []Request
				var truth []Result
				for _, pick := range []int{rng.Intn(nPairs), rng.Intn(nPairs), rng.Intn(nPairs)} {
					batch = append(batch, reqSets[pick]...)
					truth = append(truth, want[pick]...)
				}
				ctx := context.Background()
				cancelled := it%5 == 4
				if cancelled {
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx = c
				}
				got := e.BatchSolve(ctx, batch)
				for i := range got {
					if cancelled {
						if got[i].Err == nil {
							t.Errorf("goroutine %d: cancelled request %d returned an answer", g, i)
						}
						continue
					}
					if got[i].Err != nil {
						t.Errorf("goroutine %d: request %d failed: %v", g, i, got[i].Err)
						continue
					}
					if got[i].Score != truth[i].Score || got[i].From != truth[i].From ||
						!reflect.DeepEqual(got[i].Windows, truth[i].Windows) {
						t.Errorf("goroutine %d: request %d deviates from sequential run", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	snap := e.Stats()
	if got := e.CachedKernels(); got > 4 { // 2 shards × ceil(3/2) slots
		t.Fatalf("resident sessions = %d, above the configured bound", got)
	}
	if snap["cache_misses"] != solves.Load() {
		t.Fatalf("misses %d != solves %d: singleflight accounting broken", snap["cache_misses"], solves.Load())
	}
	if snap["cache_misses"] == 0 || snap["cache_hits"] == 0 || snap["cache_evictions"] == 0 {
		t.Fatalf("soak did not exercise hits+misses+evictions: %v", snap)
	}
	if snap["requests_inflight"] != 0 {
		t.Fatalf("requests_inflight = %d after quiescence", snap["requests_inflight"])
	}
	// Misses + hits + deduped covers every cache touch; touches cannot
	// exceed accepted requests (validation errors and cancelled batches
	// never reach the cache).
	touches := snap["cache_hits"] + snap["cache_misses"] + snap["cache_deduped"]
	if touches > snap["requests"] {
		t.Fatalf("cache touches %d exceed requests %d", touches, snap["requests"])
	}
}

// TestEngineCounterSetFixed pins the fixed counter set: engines built
// with the banded path, with a store, or with a stream opened report
// the identical counter names as a default engine, and those are
// exactly the obs.ScopeEngine counters.
func TestEngineCounterSetFixed(t *testing.T) {
	names := func(opts Options, stream bool) map[string]bool {
		e := NewEngine(opts)
		defer e.Close()
		if stream {
			if _, err := e.OpenStream([]byte("pattern")); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string]bool{}
		for name := range e.Stats() {
			got[name] = true
		}
		return got
	}
	want := names(Options{}, false)
	st := openStoreT(t, t.TempDir())
	defer st.Close()
	for name, got := range map[string]map[string]bool{
		"banded": names(Options{Banded: BandedConfig{Enabled: true}}, false),
		"store":  names(Options{Store: st}, false),
		"stream": names(Options{}, true),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s engine counters %v, default engine %v", name, got, want)
		}
	}
	for c := obs.CounterID(0); c < obs.NumCounters; c++ {
		if want[c.String()] != (c.Scope() == obs.ScopeEngine) {
			t.Errorf("counter %s (scope %d): exported = %v", c, c.Scope(), want[c.String()])
		}
	}
}
