package query

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
)

// chaosInputs is the fixed workload the chaos metamorphic tests run:
// a handful of pairs crossed with every query family.
func chaosRequests() []Request {
	pairs := [][2]string{
		{"abracadabra", "alakazam-abra"},
		{"the quick brown fox jumps", "the lazy dog naps quickly"},
		{"GATTACAGATTACA", "TACGATTACATACG"},
		{"mississippi", "missouri river"},
	}
	var reqs []Request
	for _, p := range pairs {
		a, b := []byte(p[0]), []byte(p[1])
		n := len(b)
		reqs = append(reqs,
			Request{A: a, B: b, Kind: Score},
			Request{A: a, B: b, Kind: StringSubstring, From: 1, To: n - 2},
			Request{A: a, B: b, Kind: SubstringString, From: 2, To: len(a) - 1},
			Request{A: a, B: b, Kind: SuffixPrefix, From: 3, To: n / 2},
			Request{A: a, B: b, Kind: PrefixSuffix, From: 2, To: 3},
			Request{A: a, B: b, Kind: Windows, Width: 5},
			Request{A: a, B: b, Kind: BestWindow, Width: 7},
		)
	}
	return reqs
}

// oracleResults answers the workload on a fault-free engine.
func oracleResults(t *testing.T, reqs []Request) []Result {
	t.Helper()
	e := NewEngine(Options{})
	defer e.Close()
	out := e.BatchSolve(context.Background(), reqs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("oracle request %d failed: %v", i, r.Err)
		}
	}
	return out
}

func sameResult(a, b Result) bool {
	if a.Score != b.Score || a.From != b.From || len(a.Windows) != len(b.Windows) {
		return false
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			return false
		}
	}
	return true
}

// allowedChaosError reports whether err is one of the typed failures a
// chaos run may legitimately surface: an injected fault (possibly
// wrapped by retry exhaustion), a shed, or a context error. Anything
// else — and any wrong answer — is a bug.
func allowedChaosError(err error) bool {
	return errors.Is(err, chaos.ErrInjected) || errors.Is(err, ErrShed) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TestChaosLatencyOnlyIsBitIdentical is the strong metamorphic claim:
// under injected latency, worker stalls, and cache eviction storms —
// faults that delay or discard work but never corrupt it — every query
// family answers bit-identically to the fault-free oracle.
func TestChaosLatencyOnlyIsBitIdentical(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)

	inj, err := chaos.New(chaos.Config{Seed: 11, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 400, Latency: 200 * time.Microsecond},
		{Point: chaos.PointAcquire, Fault: chaos.FaultEvict, PerMille: 200},
		{Point: chaos.PointPublish, Fault: chaos.FaultEvict, PerMille: 300},
		{Point: chaos.PointQuery, Fault: chaos.FaultLatency, PerMille: 300, Latency: 100 * time.Microsecond},
		{Point: chaos.PointWorker, Fault: chaos.FaultStall, PerMille: 300, Latency: 200 * time.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 4, MaxKernels: 4, Chaos: inj})
	defer e.Close()
	got := e.BatchSolve(context.Background(), reqs)
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("request %d errored under latency-only chaos: %v", i, r.Err)
		}
		if !sameResult(r, want[i]) {
			t.Fatalf("request %d deviates under chaos: got %+v, want %+v", i, r, want[i])
		}
	}
	if inj.Fired() == 0 {
		t.Fatal("chaos injected nothing; the run proved nothing")
	}
}

// TestChaosErrorsNeverWrongAnswers injects transient solve errors and
// cancellations on top of latency, with retries on: every request must
// either answer oracle-identically or fail with a typed allowed error.
// Wrong answers, panics, or unknown error types fail the test.
func TestChaosErrorsNeverWrongAnswers(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)

	for seed := uint64(1); seed <= 5; seed++ {
		inj, err := chaos.New(chaos.Config{Seed: seed, Rules: []chaos.Rule{
			{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 300},
			{Point: chaos.PointSolveFinish, Fault: chaos.FaultError, PerMille: 100},
			{Point: chaos.PointAcquire, Fault: chaos.FaultCancel, PerMille: 100},
			{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 300, Latency: 100 * time.Microsecond},
			{Point: chaos.PointPublish, Fault: chaos.FaultEvict, PerMille: 200},
		}})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{
			Workers: 4,
			Chaos:   inj,
			Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond},
		})
		got := e.BatchSolve(context.Background(), reqs)
		for i, r := range got {
			if r.Err != nil {
				if !allowedChaosError(r.Err) {
					t.Fatalf("seed %d request %d: untyped error %v", seed, i, r.Err)
				}
				continue
			}
			if !sameResult(r, want[i]) {
				t.Fatalf("seed %d request %d: wrong answer under chaos: got %+v, want %+v", seed, i, r, want[i])
			}
		}
		e.Close()
	}
}

// TestRetryRecoversTransientFaults: a solve that fails transiently
// twice and then succeeds must be retried to success by the policy,
// with the retries and backoffs visible in stats and obs.
func TestRetryRecoversTransientFaults(t *testing.T) {
	rec := obs.New()
	inj, err := chaos.New(chaos.Config{Seed: 3, Obs: rec, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 1000, MaxCount: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Chaos: inj,
		Obs:   rec,
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
	})
	defer e.Close()
	res := e.BatchSolve(context.Background(), []Request{
		{A: []byte("abracadabra"), B: []byte("alakazam"), Kind: Score},
	})
	if res[0].Err != nil {
		t.Fatalf("request failed despite retries: %v", res[0].Err)
	}
	st := e.Stats()
	if st["requests_retried"] != 2 {
		t.Fatalf("requests_retried = %d, want 2", st["requests_retried"])
	}
	if got := rec.Counter(obs.CounterRetries); got != 2 {
		t.Fatalf("obs retries = %d, want 2", got)
	}
	if got := rec.Counter(obs.CounterFaultsInjected); got != 2 {
		t.Fatalf("obs faults_injected = %d, want 2", got)
	}
	if got := rec.Snapshot().Stages[obs.StageBackoff].Count; got != 2 {
		t.Fatalf("backoff spans = %d, want 2", got)
	}
}

// TestRetryExhaustionIsTyped: when every attempt fails, the surfaced
// error still matches chaos.ErrInjected through the retry wrapper, and
// exactly MaxAttempts solves ran.
func TestRetryExhaustionIsTyped(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 5, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Chaos: inj, Retry: RetryPolicy{MaxAttempts: 3}})
	defer e.Close()
	res := e.BatchSolve(context.Background(), []Request{
		{A: []byte("aaa"), B: []byte("aba"), Kind: Score},
	})
	if res[0].Err == nil {
		t.Fatal("request succeeded though every solve fails")
	}
	if !errors.Is(res[0].Err, chaos.ErrInjected) {
		t.Fatalf("exhaustion error %v does not match ErrInjected", res[0].Err)
	}
	if got := inj.Arrivals(chaos.PointSolveStart); got != 3 {
		t.Fatalf("solve attempts = %d, want MaxAttempts = 3", got)
	}
}

// TestNoRetryWithoutPolicy: with the zero policy a transient failure
// surfaces immediately — exactly one attempt.
func TestNoRetryWithoutPolicy(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 5, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Chaos: inj})
	defer e.Close()
	res := e.BatchSolve(context.Background(), []Request{
		{A: []byte("aaa"), B: []byte("aba"), Kind: Score},
	})
	if !errors.Is(res[0].Err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want injected", res[0].Err)
	}
	if got := inj.Arrivals(chaos.PointSolveStart); got != 1 {
		t.Fatalf("solve attempts = %d, want 1", got)
	}
}

// TestLoadSheddingBoundsTheQueue: a batch larger than MaxQueue admits
// exactly MaxQueue requests and sheds the tail with ErrShed; once the
// admitted requests drain, a follow-up batch is admitted again.
func TestLoadSheddingBoundsTheQueue(t *testing.T) {
	rec := obs.New()
	e := NewEngine(Options{MaxQueue: 3, Obs: rec})
	defer e.Close()
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{
			A:    []byte(fmt.Sprintf("shed-a-%d", i)),
			B:    []byte(fmt.Sprintf("shed-b-%d", i)),
			Kind: Score,
		}
	}
	out := e.BatchSolve(context.Background(), reqs)
	var ok, shed int
	for i, r := range out {
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, ErrShed):
			shed++
		default:
			t.Fatalf("request %d: unexpected error %v", i, r.Err)
		}
	}
	if ok != 3 || shed != 7 {
		t.Fatalf("admitted %d / shed %d, want 3 / 7", ok, shed)
	}
	st := e.Stats()
	if st["requests_shed"] != 7 {
		t.Fatalf("requests_shed = %d, want 7", st["requests_shed"])
	}
	if got := rec.Counter(obs.CounterSheds); got != 7 {
		t.Fatalf("obs sheds = %d, want 7", got)
	}
	// Slots were released as requests finished: the same batch now
	// admits three more (and serves cache hits for the first three).
	out2 := e.BatchSolve(context.Background(), reqs[:3])
	for i, r := range out2 {
		if r.Err != nil {
			t.Fatalf("drained engine rejected request %d: %v", i, r.Err)
		}
	}
}

// TestDegradationNearDeadline: with DegradeBelow above the request
// deadline, every uncached parallel solve falls back to the sequential
// variant — counted, and still answering correctly.
func TestDegradationNearDeadline(t *testing.T) {
	rec := obs.New()
	e := NewEngine(Options{
		Config:       core.Config{Algorithm: core.GridReduction, Workers: 4},
		Obs:          rec,
		Deadline:     2 * time.Second,
		DegradeBelow: time.Hour, // any finite deadline is "near"
	})
	defer e.Close()
	a, b := []byte("abracadabra-abracadabra"), []byte("alakazam-alakazam-alak")
	res := e.BatchSolve(context.Background(), []Request{{A: a, B: b, Kind: Score}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	want, err := core.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score != want.Score() {
		t.Fatalf("degraded solve answered %d, want %d", res[0].Score, want.Score())
	}
	st := e.Stats()
	if st["requests_degraded"] != 1 {
		t.Fatalf("requests_degraded = %d, want 1", st["requests_degraded"])
	}
	if got := rec.Counter(obs.CounterDegradations); got != 1 {
		t.Fatalf("obs degradations = %d, want 1", got)
	}
}

// TestDegradationOnWorkerStall: an injected pool stall forces the
// stalled request onto the sequential path even with no deadline at
// all.
func TestDegradationOnWorkerStall(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 9, Rules: []chaos.Rule{
		{Point: chaos.PointWorker, Fault: chaos.FaultStall, PerMille: 1000, Latency: time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Config: core.Config{Algorithm: core.LoadBalanced, Workers: 4},
		Chaos:  inj,
	})
	defer e.Close()
	res := e.BatchSolve(context.Background(), []Request{
		{A: []byte("stall-pair-a"), B: []byte("stall-pair-b"), Kind: Score},
	})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if got := e.Stats()["requests_degraded"]; got != 1 {
		t.Fatalf("requests_degraded = %d, want 1", got)
	}
}

// TestDegradeConfigMapping pins the fallback table: parallel worker
// counts drop, multi-phase parallel algorithms map to branchless
// anti-diagonal combing, and already-sequential configs are untouched
// (no spurious degradation counts).
func TestDegradeConfigMapping(t *testing.T) {
	cases := []struct {
		in      core.Config
		want    core.Config
		changed bool
	}{
		{core.Config{Algorithm: core.RowMajor}, core.Config{Algorithm: core.RowMajor}, false},
		{core.Config{Algorithm: core.AntidiagBranchless}, core.Config{Algorithm: core.AntidiagBranchless}, false},
		{core.Config{Algorithm: core.Antidiag, Workers: 8}, core.Config{Algorithm: core.Antidiag}, true},
		{core.Config{Algorithm: core.GridReduction, Workers: 8, Use16: true}, core.Config{Algorithm: core.AntidiagBranchless}, true},
		{core.Config{Algorithm: core.LoadBalanced}, core.Config{Algorithm: core.AntidiagBranchless}, true},
		{core.Config{Algorithm: core.Hybrid}, core.Config{Algorithm: core.AntidiagBranchless}, true},
	}
	for _, tc := range cases {
		got, changed := degradeConfig(tc.in)
		if got != tc.want || changed != tc.changed {
			t.Errorf("degradeConfig(%+v) = %+v, %v; want %+v, %v", tc.in, got, changed, tc.want, tc.changed)
		}
	}
}

// TestDefaultDeadlineEnforced: Options.Deadline bounds requests that
// carry no Timeout of their own; an impossible deadline surfaces the
// typed context error, never a late answer or a hang.
func TestDefaultDeadlineEnforced(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 2, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 1000, Latency: 20 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Chaos: inj, Deadline: time.Millisecond})
	defer e.Close()
	res := e.BatchSolve(context.Background(), []Request{
		{A: []byte("deadline-a"), B: []byte("deadline-b"), Kind: Score},
	})
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", res[0].Err)
	}
	// The abandoned solve still completes and is cached; a later
	// request with a sane deadline is a hit.
	deadline := time.Now().Add(5 * time.Second)
	for e.CachedKernels() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned solve never cached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictionStormStaysCorrect: acquire-point eviction storms flush
// the whole cache continually; throughput collapses to re-solves but
// answers stay correct and eviction accounting stays balanced.
func TestEvictionStormStaysCorrect(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 13, Rules: []chaos.Rule{
		{Point: chaos.PointAcquire, Fault: chaos.FaultEvict, PerMille: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Chaos: inj})
	defer e.Close()
	a, b := []byte("storm-a-storm"), []byte("storm-b-storm")
	want := -1
	for i := 0; i < 5; i++ {
		res := e.BatchSolve(context.Background(), []Request{{A: a, B: b, Kind: Score}})
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if want == -1 {
			want = res[0].Score
		} else if res[0].Score != want {
			t.Fatalf("round %d: score %d, want %d", i, res[0].Score, want)
		}
	}
	st := e.Stats()
	if st["cache_evictions"] < 4 {
		t.Fatalf("eviction storm evicted %d times, want ≥ 4", st["cache_evictions"])
	}
	if st["cache_bytes"] < 0 {
		t.Fatalf("cache_bytes went negative: %d", st["cache_bytes"])
	}
}

// TestInjectedCancelIsTyped: acquire-point cancellation injections
// surface context.Canceled, and nothing else.
func TestInjectedCancelIsTyped(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 17, Rules: []chaos.Rule{
		{Point: chaos.PointAcquire, Fault: chaos.FaultCancel, PerMille: 1000, MaxCount: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Chaos: inj})
	defer e.Close()
	a, b := []byte("cancel-a"), []byte("cancel-b")
	res := e.BatchSolve(context.Background(), []Request{{A: a, B: b, Kind: Score}})
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res[0].Err)
	}
	// Budget spent: the retry succeeds cleanly.
	res = e.BatchSolve(context.Background(), []Request{{A: a, B: b, Kind: Score}})
	if res[0].Err != nil {
		t.Fatalf("post-budget request failed: %v", res[0].Err)
	}
}

// TestChaosConcurrentSoak hammers a fully chaotic engine from many
// batches at once under the race detector: every outcome must be a
// correct answer or a typed error, and the engine must wind down with
// no goroutine or span leaks (the leak gate proper lives in
// leak_test.go; this adds fault coverage on top).
func TestChaosConcurrentSoak(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)

	rec := obs.New()
	inj, err := chaos.New(chaos.Config{Seed: 23, Obs: rec, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 200},
		{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 200, Latency: 100 * time.Microsecond},
		{Point: chaos.PointAcquire, Fault: chaos.FaultCancel, PerMille: 50},
		{Point: chaos.PointPublish, Fault: chaos.FaultEvict, PerMille: 150},
		{Point: chaos.PointQuery, Fault: chaos.FaultLatency, PerMille: 100, Latency: 50 * time.Microsecond},
		{Point: chaos.PointWorker, Fault: chaos.FaultStall, PerMille: 100, Latency: 100 * time.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Workers:    4,
		MaxKernels: 8,
		MaxQueue:   64,
		Obs:        rec,
		Chaos:      inj,
		Retry:      RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond},
	})
	const rounds = 8
	errs := make(chan error, rounds)
	for g := 0; g < rounds; g++ {
		go func() {
			out := e.BatchSolve(context.Background(), reqs)
			for i, r := range out {
				if r.Err != nil {
					if !allowedChaosError(r.Err) {
						errs <- fmt.Errorf("request %d: untyped error %w", i, r.Err)
						return
					}
					continue
				}
				if !sameResult(r, want[i]) {
					errs <- fmt.Errorf("request %d: wrong answer %+v, want %+v", i, r, want[i])
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < rounds; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if open := rec.OpenSpans(); open != 0 {
		t.Fatalf("%d spans left open after chaotic soak", open)
	}
}
