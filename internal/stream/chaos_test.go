package stream

import (
	"errors"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/obs"
)

// TestStreamChaosErrorMetamorphic is the metamorphic case for the
// stream injection point: under error chaos, every mutation either
// applies fully (and the session is oracle-identical to a fault-free
// session fed the successful mutations) or fails with the typed
// transient error and changes nothing — never a corrupt in-between.
func TestStreamChaosErrorMetamorphic(t *testing.T) {
	inj, err := chaos.New(chaos.Config{
		Seed:  99,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := []byte("faulty")
	s, err := New(a, Config{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	var (
		chunks   [][]byte
		injected int
	)
	script := []string{"ab", "cde", "f", "abcd", "ef", "a", "bb", "cdc", "de", "fa", "bc", "ddd"}
	for i, c := range script {
		genBefore := s.g.Generation()
		err := s.Append([]byte(c))
		if err != nil {
			if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("append %d: non-injected error %v", i, err)
			}
			var tr interface{ Transient() bool }
			if !errors.As(err, &tr) || !tr.Transient() {
				t.Fatalf("append %d: injected error is not transient", i)
			}
			if s.g.Generation() != genBefore {
				t.Fatalf("append %d: failed mutation published a generation", i)
			}
			injected++
		} else {
			chunks = append(chunks, []byte(c))
		}
		// Whatever happened, the session must be oracle-identical to
		// the successful prefix.
		var window []byte
		for _, ch := range chunks {
			window = append(window, ch...)
		}
		checkIdentical(t, s, a, window, "chaos-error")
	}
	if injected == 0 {
		t.Fatal("seed 99 at 400‰ injected nothing; deterministic schedule changed?")
	}
	if got := inj.Fired(); got != int64(injected) {
		t.Fatalf("injector fired %d, observed %d errors", got, injected)
	}
	// A failed mutation is retryable: re-issuing the same chunks until
	// success must converge to the full window.
	for _, c := range []string{"xx", "yy"} {
		for {
			if err := s.Append([]byte(c)); err == nil {
				chunks = append(chunks, []byte(c))
				break
			} else if !errors.Is(err, chaos.ErrInjected) {
				t.Fatal(err)
			}
		}
	}
	var window []byte
	for _, ch := range chunks {
		window = append(window, ch...)
	}
	checkIdentical(t, s, a, window, "chaos-retry")
}

// TestStreamChaosLatency checks that latency faults only delay: every
// mutation succeeds and the kernels stay bit-identical.
func TestStreamChaosLatency(t *testing.T) {
	rec := obs.New()
	inj, err := chaos.New(chaos.Config{
		Seed: 7,
		Obs:  rec,
		Rules: []chaos.Rule{{
			Point: chaos.PointStream, Fault: chaos.FaultLatency,
			PerMille: 1000, Latency: 100 * time.Microsecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := []byte("slowly")
	s, err := New(a, Config{Chaos: inj, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var window []byte
	for _, c := range []string{"slow", "ly", "but", "sure", "ly"} {
		if err := s.Append([]byte(c)); err != nil {
			t.Fatal(err)
		}
		window = append(window, c...)
		checkIdentical(t, s, a, window, "chaos-latency")
	}
	if err := s.Slide(2); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, s, a, window[6:], "chaos-latency-slide")
	if got := inj.Arrivals(chaos.PointStream); got != 6 {
		t.Fatalf("stream point consulted %d times, want 6", got)
	}
	if rec.Counter(obs.CounterFaultsInjected) != 6 {
		t.Fatalf("faults_injected = %d, want 6", rec.Counter(obs.CounterFaultsInjected))
	}
	if rec.Counter(obs.CounterStreamGroupAppends) != 6 {
		t.Fatalf("stream_group_appends = %d, want 6", rec.Counter(obs.CounterStreamGroupAppends))
	}
	if rec.Counter(obs.CounterStreamComposes) != s.g.Compositions() {
		t.Fatalf("compositions_total = %d, session says %d",
			rec.Counter(obs.CounterStreamComposes), s.g.Compositions())
	}
}
