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

// TestStreamGroupWrapperMatchesOracle streams chunks through the
// engine's group wrapper and answers queries for every pattern against
// the shared window, cross-checked with the quadratic DP oracle and a
// from-scratch solve.
func TestStreamGroupWrapperMatchesOracle(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	patterns := [][]byte{[]byte("gattaca"), []byte("tac"), []byte("gattaca"), []byte("gg")}
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var window []byte
	for _, c := range []string{"gatt", "a", "cacatg", "attaca", "gg"} {
		if err := sg.Append(ctx, []byte(c)); err != nil {
			t.Fatalf("append %q: %v", c, err)
		}
		window = append(window, c...)
		for i := range patterns {
			if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], window); got != want {
				t.Fatalf("after %q pattern %d: score %d, oracle says %d", c, i, got, want)
			}
			scratch, err := core.Solve(patterns[i], window, stream.DefaultSolveConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !sg.Session(i).Kernel().Permutation().Equal(scratch.Permutation()) {
				t.Fatalf("after %q pattern %d: kernel differs from from-scratch solve", c, i)
			}
		}
	}
	if got, want := sg.Query(0, Request{Kind: StringSubstring, From: 3, To: 11}).Score,
		oracle.Score(patterns[0], window[3:11]); got != want {
		t.Fatalf("string-substring: %d, oracle says %d", got, want)
	}
	if err := sg.Slide(ctx, 2); err != nil {
		t.Fatal(err)
	}
	window = window[len("gatt")+len("a"):]
	for i := range patterns {
		if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], window); got != want {
			t.Fatalf("after slide pattern %d: score %d, oracle says %d", i, got, want)
		}
	}
	// Validation errors surface as Result.Err, never a panic.
	if res := sg.Query(1, Request{Kind: StringSubstring, From: 0, To: sg.Window() + 1}); res.Err == nil {
		t.Fatal("out-of-range query must report an error")
	}
	stats := e.Stats()
	if stats["streams_opened"] != 1 {
		t.Fatalf("group open counters off: %v", stats)
	}
	if stats["stream_appends"] != 5 || stats["stream_slides"] != 1 {
		t.Fatalf("group mutation counters off: %v", stats)
	}
}

// TestStreamGroupSessionCachedPerGeneration pins the per-pattern
// per-generation session cache.
func TestStreamGroupSessionCachedPerGeneration(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	sg, err := e.OpenStreamGroup([][]byte{[]byte("cache"), []byte("miss")})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sg.Append(ctx, []byte("cachemiss")); err != nil {
		t.Fatal(err)
	}
	if s1, s2 := sg.Session(0), sg.Session(0); s1 != s2 {
		t.Fatal("same generation must reuse the cached session")
	}
	if sg.Session(0) == sg.Session(1) {
		t.Fatal("different patterns must prepare different sessions")
	}
	s1 := sg.Session(1)
	if err := sg.Append(ctx, []byte("hit")); err != nil {
		t.Fatal(err)
	}
	if sg.Session(1) == s1 {
		t.Fatal("a new generation must build a new session")
	}
}

// TestStreamGroupRetryAndDeadline pins the hardening semantics shared
// with single-pattern streams: transient faults retry within budget
// (all spines advance together), an exhausted budget surfaces the typed
// error with every spine unmutated, and a cancelled context fails
// before any state changes.
func TestStreamGroupRetryAndDeadline(t *testing.T) {
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
	patterns := [][]byte{[]byte("retry"), []byte("try")}
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Append(context.Background(), []byte("chunk")); err != nil {
		t.Fatalf("append should survive 2 injected faults under a 4-attempt policy: %v", err)
	}
	for i := range patterns {
		if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], []byte("chunk")); got != want {
			t.Fatalf("post-retry pattern %d score %d, oracle says %d", i, got, want)
		}
	}
	if retried := e.Stats()["requests_retried"]; retried != 2 {
		t.Fatalf("requests_retried = %d, want 2", retried)
	}

	// Exhausted budget: typed error, whole group unmutated.
	inj2, err := chaos.New(chaos.Config{
		Seed:  7,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(Options{
		Chaos: inj2,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
	})
	defer e2.Close()
	sg2, err := e2.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	gen := sg2.Generation()
	err = sg2.Append(context.Background(), []byte("chunk"))
	if err == nil {
		t.Fatal("append must fail once the retry budget drains")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error must wrap the injected sentinel: %v", err)
	}
	if !strings.Contains(err.Error(), "stream group mutation attempts failed") {
		t.Fatalf("error must carry the retry context: %v", err)
	}
	if sg2.Generation() != gen || sg2.State(0).Gen != gen || sg2.State(1).Gen != gen {
		t.Fatal("a failed append must leave every spine on its previous generation")
	}

	// Cancelled context: no mutation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sg.Append(ctx, []byte("late")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append: got %v, want context.Canceled", err)
	}
}

// TestStreamGroupClosedEngine pins closed-engine semantics: opening and
// mutating fail with ErrEngineClosed, while already-published
// generations stay queryable for every pattern.
func TestStreamGroupClosedEngine(t *testing.T) {
	e := NewEngine(Options{})
	patterns := [][]byte{[]byte("closing"), []byte("open")}
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sg.Append(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := sg.Append(ctx, []byte("after")); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("append on closed engine: got %v, want ErrEngineClosed", err)
	}
	if err := sg.Slide(ctx, 1); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("slide on closed engine: got %v, want ErrEngineClosed", err)
	}
	if _, err := e.OpenStreamGroup(patterns); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("open on closed engine: got %v, want ErrEngineClosed", err)
	}
	for i := range patterns {
		if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], []byte("before")); got != want {
			t.Fatalf("published generation must stay queryable after close: pattern %d %d vs %d", i, got, want)
		}
	}
}

// TestStreamGroupChaosMetamorphicThroughWrapper is the serving-layer
// group metamorphic property: under probabilistic stream faults with
// retries enabled, every group mutation eventually lands and every
// pattern's final kernel is bit-identical to a fault-free independent
// session fed the same chunks.
func TestStreamGroupChaosMetamorphicThroughWrapper(t *testing.T) {
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
	patterns := [][]byte{[]byte("metamorphic"), []byte("meta"), []byte("morph")}
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	clean := make([]*stream.Session, len(patterns))
	for i := range clean {
		if clean[i], err = stream.New(patterns[i], stream.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	chunks := []string{"meta", "morphic_", "group", "s", "_under", "_chaos", "!"}
	for _, c := range chunks {
		if err := sg.Append(ctx, []byte(c)); err != nil {
			t.Fatalf("append %q: %v (8-attempt budget at 30%% fault rate)", c, err)
		}
		for i := range clean {
			if err := clean[i].Append([]byte(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sg.Slide(ctx, 3); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if err := clean[i].Slide(3); err != nil {
			t.Fatal(err)
		}
		if !sg.Session(i).Kernel().Permutation().Equal(clean[i].Kernel().Permutation()) {
			t.Fatalf("pattern %d: faulted group must publish kernels bit-identical to the fault-free run", i)
		}
		if sg.State(i).Gen != clean[i].Generation() {
			t.Fatalf("pattern %d generation drift: faulted %d vs clean %d", i, sg.State(i).Gen, clean[i].Generation())
		}
	}
	if sg.LeafSolves()+sg.LeafShares() == 0 {
		t.Fatal("group must account its leaf solves")
	}
}
