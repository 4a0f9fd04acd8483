package obs

import (
	"sync"
	"testing"
)

// TestCounterSetScopeAndForwarding: a set exports exactly its scope's
// names, zero or not; Add forwards to the attached recorder; a
// snapshot is a copy; StatsLine renders sorted name=value pairs.
func TestCounterSetScopeAndForwarding(t *testing.T) {
	rec := New()
	set := NewCounterSet(ScopeServer, rec)
	set.Add(CounterServerRequests, 5)
	set.Add(CounterTenantRejects, 2)
	set.Add(CounterTenantRejects, -1)
	snap := set.Snapshot()
	want := map[string]int64{"server_requests": 5, "server_reroutes": 0, "tenant_rejects": 1}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v, want %v", snap, want)
	}
	for name, v := range want {
		if snap[name] != v {
			t.Fatalf("snapshot = %v, want %v", snap, want)
		}
	}
	if rec.Counter(CounterServerRequests) != 5 || rec.Counter(CounterTenantRejects) != 1 {
		t.Fatalf("recorder did not see the set's adds: %v", rec.Snapshot().Counters)
	}
	snap["server_requests"] = 999
	if set.Snapshot()["server_requests"] != 5 {
		t.Fatal("snapshot aliases the set")
	}
	if got, want := StatsLine(set.Snapshot()), "server_requests=5 server_reroutes=0 tenant_rejects=1"; got != want {
		t.Fatalf("StatsLine = %q, want %q", got, want)
	}
	if got := len(NewCounterSet(ScopeEngine, nil).Snapshot()); got == 0 {
		t.Fatal("engine scope exports no counters")
	}
}

// TestCounterSetAddBasics: Add accumulates, a negative delta moves
// the value down, and the attached recorder sees the same total.
func TestCounterSetAddBasics(t *testing.T) {
	rec := New()
	set := NewCounterSet(ScopeEngine, rec)
	set.Add(CounterCacheBytes, 1)
	set.Add(CounterCacheBytes, 41)
	set.Add(CounterCacheBytes, -2)
	if got := set.Snapshot()["cache_bytes"]; got != 40 {
		t.Fatalf("cache_bytes = %d, want 40", got)
	}
	if got := rec.Counter(CounterCacheBytes); got != 40 {
		t.Fatalf("recorder cache_bytes = %d, want 40", got)
	}
	NewCounterSet(ScopeEngine, nil).Add(CounterCacheBytes, 7) // nil recorder: no forwarding, no panic
	if got := rec.Counter(CounterCacheBytes); got != 40 {
		t.Fatalf("a detached set forwarded to the recorder: %d", got)
	}
}

// TestCounterSetSnapshotUnderWriters is the -race test of the snapshot
// path: readers snapshot and render the set while writers bump a
// counter and move a gauge up and back down. Every snapshot stays
// within bounds and the quiescent snapshot is exact.
func TestCounterSetSnapshotUnderWriters(t *testing.T) {
	set := NewCounterSet(ScopeEngine, nil)
	const writers, perW = 8, 2000
	var readers, ww sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := set.Snapshot()
				if v := snap["requests"]; v < 0 || v > writers*perW {
					t.Errorf("snapshot observed impossible requests=%d", v)
					return
				}
				if v := snap["requests_inflight"]; v < 0 || v > writers {
					t.Errorf("snapshot observed impossible requests_inflight=%d", v)
					return
				}
				_ = StatsLine(snap)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				set.Add(CounterRequestsInflight, 1)
				set.Add(CounterRequests, 1)
				set.Add(CounterRequestsInflight, -1)
			}
		}()
	}
	ww.Wait()
	close(stop)
	readers.Wait()
	snap := set.Snapshot()
	if snap["requests"] != writers*perW || snap["requests_inflight"] != 0 {
		t.Fatalf("quiescent snapshot requests=%d requests_inflight=%d, want %d and 0",
			snap["requests"], snap["requests_inflight"], writers*perW)
	}
}

// TestCounterSetConcurrentExact is the -race exactness test of the
// always-on counters: goroutines bump one shared counter, one of four
// per-goroutine counters and a gauge up and back down. At quiescence
// every counter is exact, the gauge is back to zero, and the recorder
// reconciles with the set.
func TestCounterSetConcurrentExact(t *testing.T) {
	rec := New()
	set := NewCounterSet(ScopeEngine, rec)
	own := [4]CounterID{CounterCacheHits, CounterCacheMisses, CounterCacheDeduped, CounterCacheEvictions}
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				set.Add(CounterRequestsInflight, 1)
				set.Add(CounterRequests, 1)
				set.Add(own[g%len(own)], 1)
				set.Add(CounterRequestsInflight, -1)
			}
		}(g)
	}
	wg.Wait()
	snap := set.Snapshot()
	if snap["requests"] != goroutines*perG || snap["requests_inflight"] != 0 {
		t.Fatalf("requests=%d requests_inflight=%d, want %d and 0",
			snap["requests"], snap["requests_inflight"], goroutines*perG)
	}
	for _, c := range own {
		if got, want := snap[c.String()], int64(goroutines/len(own)*perG); got != want {
			t.Fatalf("%s = %d, want %d", c, got, want)
		}
	}
	for _, c := range append(own[:], CounterRequests, CounterRequestsInflight) {
		if rec.Counter(c) != snap[c.String()] {
			t.Fatalf("recorder %s = %d, set %d", c, rec.Counter(c), snap[c.String()])
		}
	}
}
