package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardedCounterConcurrentExactness: increments from many
// goroutines must sum exactly — every Add lands atomically on exactly
// one shard. Run under -race via make test-race.
func TestShardedCounterConcurrentExactness(t *testing.T) {
	var c ShardedCounter
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("Load = %d, want %d", got, goroutines*perG)
	}
	c.Add(-5)
	if got := c.Load(); got != goroutines*perG-5 {
		t.Fatalf("after negative delta: %d", got)
	}
}

func TestMaxGaugeConcurrent(t *testing.T) {
	var g MaxGauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Load(); got != 7999 {
		t.Fatalf("max = %d, want 7999", got)
	}
}

// TestNilRecorderIsInert: every Recorder method must be a no-op on a
// nil receiver (the disabled-instrumentation contract; the alloc guard
// in alloc_test.go additionally pins the zero-allocation half).
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	sp := r.Start(StageSolve)
	sp.End()
	r.Observe(StageQuery, time.Millisecond)
	r.Add(CounterCombCells, 10)
	r.RecordComposeDepth(3)
	if r.OpenSpans() != 0 || r.Counter(CounterCombCells) != 0 {
		t.Fatal("nil recorder accumulated state")
	}
	if snap := r.Snapshot(); snap != (Snapshot{}) {
		t.Fatal("nil recorder snapshot is not zero")
	}
}

func TestSpanBalance(t *testing.T) {
	r := New()
	sp := r.Start(StageSolve)
	if got := r.OpenSpans(); got != 1 {
		t.Fatalf("open spans mid-flight = %d, want 1", got)
	}
	time.Sleep(time.Millisecond)
	sp.End()
	if got := r.OpenSpans(); got != 0 {
		t.Fatalf("open spans after End = %d, want 0", got)
	}
	s := r.Snapshot()
	if s.Stages[StageSolve].Count != 1 {
		t.Fatalf("solve count = %d", s.Stages[StageSolve].Count)
	}
	if s.Stages[StageSolve].Sum < int64(time.Millisecond)/2 {
		t.Fatalf("solve duration %v implausibly small", s.Stages[StageSolve].Total())
	}
	// The open-span gauge itself must not leak into the snapshot counters
	// once balanced.
	if s.Counters[CounterOpenSpans] != 0 {
		t.Fatalf("open_spans counter = %d, want 0", s.Counters[CounterOpenSpans])
	}
}

func TestStageAndCounterNames(t *testing.T) {
	// Stages and counters are separate namespaces (every rendering
	// prefixes them differently); each must be unique within itself.
	stages := map[string]bool{}
	for st := Stage(0); st < NumStages; st++ {
		name := st.String()
		if name == "" || name == "unknown" || stages[name] {
			t.Fatalf("stage %d has bad or duplicate name %q", st, name)
		}
		stages[name] = true
	}
	counters := map[string]bool{}
	for c := CounterID(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || name == "unknown" || counters[name] {
			t.Fatalf("counter %d has bad or duplicate name %q", c, name)
		}
		counters[name] = true
	}
	if NumStages.String() != "unknown" || NumCounters.String() != "unknown" {
		t.Fatal("out-of-range enums should render as unknown")
	}
}

func TestBreakdownAndCoverage(t *testing.T) {
	r := New()
	r.Observe(StageSolve, 10*time.Millisecond)
	r.Observe(StageCombDiags, 9*time.Millisecond)
	r.Observe(StageCombFinish, 500*time.Microsecond)
	r.Observe(StageGridComb, 9*time.Millisecond) // overlapping: must not count
	r.Add(CounterCombCells, 1<<20)
	s := r.Snapshot()
	cov := s.SolveCoverage()
	if cov < 0.94 || cov > 0.96 {
		t.Fatalf("coverage = %v, want 9.5ms/10ms", cov)
	}
	var sb strings.Builder
	s.WriteBreakdown(&sb)
	out := sb.String()
	for _, want := range []string{"solve", "comb_diags", "comb_finish", "comb_cells=1048576", "accounted: 95.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "queue_wait") {
		t.Fatalf("breakdown shows stages with no observations:\n%s", out)
	}
}

func TestPublishTo(t *testing.T) {
	r := New()
	r.Observe(StageSolve, 2*time.Millisecond)
	r.Add(CounterComposes, 3)
	r.RecordComposeDepth(5)
	snap := r.Snapshot().Vars()
	if snap["obs_stage_solve_count"] != 1 || snap["obs_stage_solve_ns"] != int64(2*time.Millisecond) {
		t.Fatalf("published stage values wrong: %v", snap)
	}
	if snap["obs_composes"] != 3 || snap["obs_compose_depth_max"] != 5 {
		t.Fatalf("published counters wrong: %v", snap)
	}
	// A newer snapshot carries absolute values, not deltas.
	r.Add(CounterComposes, 1)
	if got := r.Snapshot().Vars()["obs_composes"]; got != 4 {
		t.Fatalf("re-publish = %d, want 4", got)
	}
}

func TestWriteMetricsShape(t *testing.T) {
	r := New()
	r.Observe(StageSolve, time.Millisecond)
	var sb strings.Builder
	WriteMetrics(&sb, r.Snapshot(), map[string]int64{"cache_hits": 2, "requests": 5})
	out := sb.String()
	for _, want := range []string{
		"# TYPE semilocal_stage_duration_seconds histogram",
		`semilocal_stage_duration_seconds_bucket{stage="solve",le="+Inf"} 1`,
		`semilocal_stage_duration_seconds_count{stage="solve"} 1`,
		`semilocal_obs_counter{name="comb_cells"} 0`,
		"semilocal_obs_compose_depth_max 0",
		`semilocal_engine_counter{name="cache_hits"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: the last finite bucket must equal the count.
	if !strings.Contains(out, `le="+Inf"} 1`) {
		t.Fatal("missing +Inf bucket")
	}
	// Stages without observations are omitted.
	if strings.Contains(out, `stage="queue_wait"`) {
		t.Fatal("empty stage rendered")
	}
}
