package query

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/oracle"
	"semilocal/internal/stream"
)

// TestStreamWrapperMatchesOracle streams chunks through the engine's
// wrapper and answers every query kind against the growing window,
// cross-checked with the quadratic DP oracle and a from-scratch solve.
func TestStreamWrapperMatchesOracle(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	a := []byte("gattaca")
	st, err := e.OpenStream(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var window []byte
	for _, c := range []string{"gatt", "a", "cacatg", "attaca", "gg"} {
		if err := st.Append(ctx, []byte(c)); err != nil {
			t.Fatalf("append %q: %v", c, err)
		}
		window = append(window, c...)
		if got, want := st.Query(Request{Kind: Score}).Score, oracle.Score(a, window); got != want {
			t.Fatalf("after %q: score %d, oracle says %d", c, got, want)
		}
		scratch, err := core.Solve(a, window, stream.DefaultSolveConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Session(0).Permutation().Equal(scratch.Permutation()) {
			t.Fatalf("after %q: streamed kernel differs from from-scratch solve", c)
		}
	}
	if got, want := st.Query(Request{Kind: StringSubstring, From: 3, To: 11}).Score,
		oracle.Score(a, window[3:11]); got != want {
		t.Fatalf("string-substring: %d, oracle says %d", got, want)
	}
	res := st.Query(Request{Kind: BestWindow, Width: 7})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := oracle.Score(a, window[res.From:res.From+7]); res.Score != want {
		t.Fatalf("best-window score %d, oracle says %d at offset %d", res.Score, want, res.From)
	}
	if err := st.Slide(ctx, 2); err != nil {
		t.Fatal(err)
	}
	window = window[len("gatt")+len("a"):]
	if got, want := st.Query(Request{Kind: Score}).Score, oracle.Score(a, window); got != want {
		t.Fatalf("after slide: score %d, oracle says %d", got, want)
	}
	// Validation errors surface as Result.Err, never a panic.
	if res := st.Query(Request{Kind: StringSubstring, From: 0, To: st.Window() + 1}); res.Err == nil {
		t.Fatal("out-of-range query must report an error")
	}
	stats := e.Stats()
	if stats["streams_opened"] != 1 || stats["stream_appends"] != 5 || stats["stream_slides"] != 1 {
		t.Fatalf("stream counters off: %v", stats)
	}
}

// TestStreamSessionCachedPerGeneration pins the per-generation session
// cache: repeated Session calls between mutations return the same
// prepared session, and a mutation invalidates it.
func TestStreamSessionCachedPerGeneration(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	st, err := e.OpenStream([]byte("cache"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.Append(ctx, []byte("cachemiss")); err != nil {
		t.Fatal(err)
	}
	s1, s2 := st.Session(0), st.Session(0)
	if s1 != s2 {
		t.Fatal("same generation must reuse the cached session")
	}
	if err := st.Append(ctx, []byte("hit")); err != nil {
		t.Fatal(err)
	}
	if s3 := st.Session(0); s3 == s1 {
		t.Fatal("a new generation must build a new session")
	}
}

// TestStreamAppendRetriesTransient wires a budgeted error rule into the
// stream point: the wrapper's retry policy absorbs the injected
// failures and the append succeeds, counted in requests_retried.
func TestStreamAppendRetriesTransient(t *testing.T) {
	inj, err := chaos.New(chaos.Config{
		Seed:  7,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000, MaxCount: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Chaos: inj,
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond},
	})
	defer e.Close()
	st, err := e.OpenStream([]byte("retry"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(context.Background(), []byte("chunk")); err != nil {
		t.Fatalf("append should survive 2 injected faults under a 4-attempt policy: %v", err)
	}
	if got, want := st.Query(Request{Kind: Score}).Score, oracle.Score([]byte("retry"), []byte("chunk")); got != want {
		t.Fatalf("post-retry score %d, oracle says %d", got, want)
	}
	if retried := e.Stats()["requests_retried"]; retried != 2 {
		t.Fatalf("requests_retried = %d, want 2", retried)
	}
	if fired := inj.Fired(); fired != 2 {
		t.Fatalf("injector fired %d times, want 2", fired)
	}
}

// TestStreamAppendRetryExhausted drains the retry budget against an
// always-on fault: the typed injected error must surface, wrapped in
// the stream-mutation retry message, with the stream unmutated.
func TestStreamAppendRetryExhausted(t *testing.T) {
	inj, err := chaos.New(chaos.Config{
		Seed:  7,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Chaos: inj,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
	})
	defer e.Close()
	st, err := e.OpenStream([]byte("doom"))
	if err != nil {
		t.Fatal(err)
	}
	gen := st.Generation()
	err = st.Append(context.Background(), []byte("chunk"))
	if err == nil {
		t.Fatal("append must fail once the retry budget drains")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error must wrap the injected sentinel: %v", err)
	}
	if !strings.Contains(err.Error(), "stream mutation attempts failed") {
		t.Fatalf("error must carry the retry context: %v", err)
	}
	if st.Generation() != gen {
		t.Fatal("a failed append must leave the stream on its previous generation")
	}
}

// TestStreamMutationDeadline pins context semantics: a cancelled
// context fails the mutation with its context error before any state
// changes, and the engine's default deadline bounds retry backoff.
func TestStreamMutationDeadline(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	st, err := e.OpenStream([]byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.Append(ctx, []byte("late")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append: got %v, want context.Canceled", err)
	}
	if st.Generation() != 0 || st.Window() != 0 {
		t.Fatal("cancelled append must not mutate the stream")
	}

	// Under an engine deadline shorter than the backoff, a transient
	// failure turns into DeadlineExceeded instead of a blocked retry.
	inj, err := chaos.New(chaos.Config{
		Seed:  3,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(Options{
		Chaos:    inj,
		Retry:    RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Minute},
		Deadline: 5 * time.Millisecond,
	})
	defer e2.Close()
	st2, err := e2.OpenStream([]byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Append(context.Background(), []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline during backoff: got %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamClosedEngine pins closed-engine semantics: opening and
// mutating fail with ErrEngineClosed, while the already-published
// generation stays queryable.
func TestStreamClosedEngine(t *testing.T) {
	e := NewEngine(Options{})
	st, err := e.OpenStream([]byte("closing"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.Append(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := st.Append(ctx, []byte("after")); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("append on closed engine: got %v, want ErrEngineClosed", err)
	}
	if err := st.Slide(ctx, 1); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("slide on closed engine: got %v, want ErrEngineClosed", err)
	}
	if _, err := e.OpenStream([]byte("x")); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("open on closed engine: got %v, want ErrEngineClosed", err)
	}
	if got, want := st.Query(Request{Kind: Score}).Score, oracle.Score([]byte("closing"), []byte("before")); got != want {
		t.Fatalf("published generation must stay queryable after close: %d vs %d", got, want)
	}
}

// TestStreamChaosMetamorphicThroughWrapper is the serving-layer
// metamorphic property: under probabilistic stream faults with retries
// enabled, every append eventually lands and the final kernel is
// bit-identical to a fault-free session fed the same chunks.
func TestStreamChaosMetamorphicThroughWrapper(t *testing.T) {
	inj, err := chaos.New(chaos.Config{
		Seed:  99,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Chaos: inj,
		Retry: RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Microsecond},
	})
	defer e.Close()
	a := []byte("metamorphic")
	st, err := e.OpenStream(a)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := stream.NewGroup([][]byte{a}, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chunks := []string{"meta", "morphic_", "stream", "s", "_under", "_chaos", "!"}
	for _, c := range chunks {
		if err := st.Append(ctx, []byte(c)); err != nil {
			t.Fatalf("append %q: %v (8-attempt budget at 30%% fault rate)", c, err)
		}
		if err := clean.Append([]byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Slide(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := clean.Slide(3); err != nil {
		t.Fatal(err)
	}
	if !st.Session(0).Permutation().Equal(clean.Snapshot(0).Kernel.Permutation()) {
		t.Fatal("faulted stream must publish a kernel bit-identical to the fault-free run")
	}
	if st.Generation() != clean.Generation() {
		t.Fatalf("generation drift: faulted %d vs clean %d", st.Generation(), clean.Generation())
	}
}
