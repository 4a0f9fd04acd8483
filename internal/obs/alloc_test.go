//go:build !race

// The zero-allocation guards live behind !race: the race detector's
// instrumentation inserts allocations of its own, which would turn
// these exact-zero assertions into noise. make check runs both lanes,
// so the guards always run in CI.
package obs

import (
	"testing"
	"time"
)

// TestDisabledRecorderZeroAllocs pins the core contract of the
// instrumentation layer: a nil recorder adds zero allocations to any
// hot path it is threaded through — spans, observations, counters and
// gauges all no-op without touching the heap or the clock, and an
// always-on counter set with no recorder attached bumps one atomic.
func TestDisabledRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	set := NewCounterSet(ScopeEngine, r)
	if got := testing.AllocsPerRun(1000, func() {
		sp := r.Start(StageSolve)
		r.Add(CounterCombCells, 4096)
		set.Add(CounterCacheHits, 1)
		r.Observe(StageQueueWait, time.Microsecond)
		r.RecordComposeDepth(12)
		sp.End()
	}); got != 0 {
		t.Fatalf("disabled recorder allocates %v times per run, want 0", got)
	}
}

// TestEnabledRecorderHotPathZeroAllocs: even when enabled, spans are
// values and buckets are fixed arrays, so steady-state recording does
// not allocate either (construction of the Recorder and of counter sets
// are the only allocations the subsystem makes on the write side).
func TestEnabledRecorderHotPathZeroAllocs(t *testing.T) {
	r := New()
	set := NewCounterSet(ScopeEngine, r)
	if got := testing.AllocsPerRun(1000, func() {
		sp := r.Start(StageSolve)
		r.Add(CounterCombCells, 4096)
		set.Add(CounterCacheHits, 1)
		r.Observe(StageQueueWait, time.Microsecond)
		r.RecordComposeDepth(12)
		sp.End()
	}); got != 0 {
		t.Fatalf("enabled recorder allocates %v times per run, want 0", got)
	}
}
