package query

// Dispatcher tests for the banded fast path: the metamorphic claim
// (routing through the banded BFS never changes an answer), the counter
// reconciliation invariant (requests_banded + band_fallbacks accounts
// for every banded-eligible request), the chaos fallback at
// PointBanded, and the -race concurrency soak over a mixed
// banded/kernel load.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/obs"
)

// bandedWorkload builds a mixed batch: Score requests on near-identical
// pairs (banded-routable), Score requests on divergent pairs (probe
// veto → kernel fallback), and semi-local queries (never eligible).
// It returns the batch and the number of Score requests in it.
func bandedWorkload(rng *rand.Rand) ([]Request, int) {
	base := make([]byte, 2000)
	for i := range base {
		base[i] = byte('a' + rng.Intn(4))
	}
	near := append([]byte(nil), base...)
	near[500] = 'z'
	near = append(near[:1500], near[1501:]...) // one sub + one del
	far := make([]byte, 2000)
	for i := range far {
		far[i] = byte('A' + rng.Intn(26))
	}
	reqs := []Request{
		{A: base, B: near, Kind: Score},
		{A: base, B: base, Kind: Score},
		{A: base, B: far, Kind: Score},
		{A: base, B: far[:40], Kind: Score},
		{A: []byte("kitten"), B: []byte("sitting"), Kind: Score},
		{A: base[:200], B: near[:200], Kind: StringSubstring, From: 10, To: 150},
		{A: base[:200], B: near[:200], Kind: Windows, Width: 50},
		{A: base[:200], B: near[:200], Kind: BestWindow, Width: 64},
	}
	scores := 0
	for _, r := range reqs {
		if r.Kind == Score {
			scores++
		}
	}
	return reqs, scores
}

// TestBandedDispatchBitIdentical is the dispatcher metamorphic suite:
// the same batch answered by a banded-enabled engine and a plain kernel
// engine must be bit-identical, while the counters prove both routes
// were actually exercised.
func TestBandedDispatchBitIdentical(t *testing.T) {
	reqs, scores := bandedWorkload(rand.New(rand.NewSource(21)))
	want := oracleResults(t, reqs)

	e := NewEngine(Options{Workers: 2, Banded: BandedConfig{Enabled: true}})
	defer e.Close()
	got := e.BatchSolve(context.Background(), reqs)
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("request %d errored on banded engine: %v", i, r.Err)
		}
		if !sameResult(r, want[i]) {
			t.Fatalf("request %d deviates on banded engine: got %+v, want %+v", i, r, want[i])
		}
	}
	snap := e.Stats()
	if snap["requests_banded"] == 0 {
		t.Fatal("no request took the banded path; the run proved nothing")
	}
	if snap["band_fallbacks"] == 0 {
		t.Fatal("no request fell back to the kernel; the run proved nothing")
	}
	if got := snap["requests_banded"] + snap["band_fallbacks"]; got != int64(scores) {
		t.Fatalf("reconciliation: banded %d + fallbacks %d != %d Score requests",
			snap["requests_banded"], snap["band_fallbacks"], scores)
	}
}

// TestBandedCountersMirrorObs pins that the stats counters and the obs
// counters tell the same story, and that the banded stages recorded
// spans.
func TestBandedCountersMirrorObs(t *testing.T) {
	reqs, _ := bandedWorkload(rand.New(rand.NewSource(22)))
	rec := obs.New()
	e := NewEngine(Options{Banded: BandedConfig{Enabled: true}, Obs: rec})
	defer e.Close()
	for _, r := range e.BatchSolve(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	snap := e.Stats()
	if got := rec.Counter(obs.CounterBandedRequests); got != snap["requests_banded"] {
		t.Errorf("obs requests_banded = %d, stats = %d", got, snap["requests_banded"])
	}
	if got := rec.Counter(obs.CounterBandFallbacks); got != snap["band_fallbacks"] {
		t.Errorf("obs band_fallbacks = %d, stats = %d", got, snap["band_fallbacks"])
	}
	os := rec.Snapshot()
	if os.Stages[obs.StageBandProbe].Count == 0 {
		t.Error("band_probe recorded no spans")
	}
	if os.Stages[obs.StageBandedBFS].Count == 0 {
		t.Error("banded_bfs recorded no spans")
	}
}

// TestBandedDisabledRegistersNoCounters: turning the fast path off
// neither adds nor drops a counter (the engine set is fixed), and a
// disabled engine never moves the banded counters, however
// banded-routable its Score requests are.
func TestBandedDisabledRegistersNoCounters(t *testing.T) {
	reqs, _ := bandedWorkload(rand.New(rand.NewSource(24)))
	off := NewEngine(Options{})
	defer off.Close()
	on := NewEngine(Options{Banded: BandedConfig{Enabled: true}})
	defer on.Close()
	for i, r := range off.BatchSolve(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	snap, onSnap := off.Stats(), on.Stats()
	if len(snap) != len(onSnap) {
		t.Fatalf("disabled engine exports %d counters, enabled %d", len(snap), len(onSnap))
	}
	for name := range onSnap {
		if _, ok := snap[name]; !ok {
			t.Errorf("disabled engine lacks %q", name)
		}
	}
	for _, key := range []string{"requests_banded", "band_fallbacks"} {
		if v, ok := snap[key]; !ok || v != 0 {
			t.Errorf("disabled engine %s = %d (exported %v), want 0", key, v, ok)
		}
	}
}

// TestBandedExplicitMaxK pins the configured-budget route: a tiny MaxK
// turns a moderately edited pair into a fallback, a generous one keeps
// it banded; answers agree either way.
func TestBandedExplicitMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := make([]byte, 4000)
	for i := range base {
		base[i] = byte('a' + rng.Intn(4))
	}
	edited := append([]byte(nil), base...)
	for i := 0; i < 40; i++ {
		edited[rng.Intn(len(edited))] = 'z'
	}
	req := []Request{{A: base, B: edited, Kind: Score}}
	want := oracleResults(t, req)

	tight := NewEngine(Options{Banded: BandedConfig{Enabled: true, MaxK: 4}})
	defer tight.Close()
	res := tight.BatchSolve(context.Background(), req)
	if res[0].Err != nil || !sameResult(res[0], want[0]) {
		t.Fatalf("tight budget: got %+v, want %+v", res[0], want[0])
	}
	if s := tight.Stats(); s["band_fallbacks"] != 1 || s["requests_banded"] != 0 {
		t.Fatalf("tight budget should fall back: %v", s)
	}

	wide := NewEngine(Options{Banded: BandedConfig{Enabled: true, MaxK: 4096}})
	defer wide.Close()
	res = wide.BatchSolve(context.Background(), req)
	if res[0].Err != nil || !sameResult(res[0], want[0]) {
		t.Fatalf("wide budget: got %+v, want %+v", res[0], want[0])
	}
	if s := wide.Stats(); s["requests_banded"] != 1 || s["band_fallbacks"] != 0 {
		t.Fatalf("wide budget should stay banded: %v", s)
	}
}

// TestBandedChaosFallback is the chaos metamorphic claim at
// PointBanded: injected faults change only the routing (forced kernel
// fallbacks, extra latency), never an answer, and never surface an
// error — the fallback absorbs the fault.
func TestBandedChaosFallback(t *testing.T) {
	reqs, scores := bandedWorkload(rand.New(rand.NewSource(24)))
	want := oracleResults(t, reqs)

	for seed := uint64(1); seed <= 5; seed++ {
		inj, err := chaos.New(chaos.Config{Seed: seed, Rules: []chaos.Rule{
			{Point: chaos.PointBanded, Fault: chaos.FaultError, PerMille: 500},
			{Point: chaos.PointBanded, Fault: chaos.FaultLatency, PerMille: 300, Latency: 50 * time.Microsecond},
		}})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{Banded: BandedConfig{Enabled: true}, Chaos: inj})
		got := e.BatchSolve(context.Background(), reqs)
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("seed %d request %d errored under banded chaos: %v", seed, i, r.Err)
			}
			if !sameResult(r, want[i]) {
				t.Fatalf("seed %d request %d deviates under banded chaos: got %+v, want %+v", seed, i, r, want[i])
			}
		}
		snap := e.Stats()
		if got := snap["requests_banded"] + snap["band_fallbacks"]; got != int64(scores) {
			t.Fatalf("seed %d reconciliation: banded %d + fallbacks %d != %d Score requests",
				seed, snap["requests_banded"], snap["band_fallbacks"], scores)
		}
		if inj.Arrivals(chaos.PointBanded) != int64(scores) {
			t.Fatalf("seed %d: chaos point consulted %d times, want %d", seed, inj.Arrivals(chaos.PointBanded), scores)
		}
		e.Close()
	}
}

// TestBandedConcurrentSoak is the mixed-load -race soak: concurrent
// BatchSolve batches mixing banded-routable, kernel-fallback, and
// semi-local requests on one engine, with chaos faults at PointBanded
// and the solve points and retries on. Every failure must be a typed
// allowed error, every success must match the fault-free oracle, and
// at quiescence the counters must reconcile exactly.
func TestBandedConcurrentSoak(t *testing.T) {
	reqs, scores := bandedWorkload(rand.New(rand.NewSource(25)))
	want := oracleResults(t, reqs)

	inj, err := chaos.New(chaos.Config{Seed: 77, Rules: []chaos.Rule{
		{Point: chaos.PointBanded, Fault: chaos.FaultError, PerMille: 300},
		{Point: chaos.PointBanded, Fault: chaos.FaultLatency, PerMille: 200, Latency: 20 * time.Microsecond},
		{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 100},
		{Point: chaos.PointWorker, Fault: chaos.FaultStall, PerMille: 100, Latency: 50 * time.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	e := NewEngine(Options{
		Workers: 4,
		Banded:  BandedConfig{Enabled: true},
		Chaos:   inj,
		Obs:     rec,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Microsecond},
	})
	defer e.Close()

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				got := e.BatchSolve(context.Background(), reqs)
				for i, r := range got {
					if r.Err != nil {
						if !allowedChaosError(r.Err) {
							t.Errorf("untyped error under soak: %v", r.Err)
						}
						continue
					}
					if !sameResult(r, want[i]) {
						t.Errorf("request %d wrong answer under soak: got %+v, want %+v", i, r, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()

	// Quiescent counter exactness: every Score request in every batch
	// was either answered banded or counted as a fallback — nothing
	// double-counted, nothing dropped. (A Score request that errors does
	// so on the kernel leg, after its fallback was already counted.)
	snap := e.Stats()
	total := int64(clients * rounds * scores)
	if got := snap["requests_banded"] + snap["band_fallbacks"]; got != total {
		t.Fatalf("reconciliation: banded %d + fallbacks %d != %d eligible requests",
			snap["requests_banded"], snap["band_fallbacks"], total)
	}
	if rec.Counter(obs.CounterBandedRequests) != snap["requests_banded"] ||
		rec.Counter(obs.CounterBandFallbacks) != snap["band_fallbacks"] {
		t.Fatal("obs and stats counters disagree at quiescence")
	}
	if rec.OpenSpans() != 0 {
		t.Fatalf("open spans at quiescence: %d", rec.OpenSpans())
	}
}
