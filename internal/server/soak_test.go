package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"semilocal/internal/query"
)

// TestServerSoakCounterExactness is the concurrency wall for the tier:
// 8 clients hammer a live 4-shard server over real HTTP (a mixed
// batch/stream workload with per-client pairs plus a contended shared
// pair), under -race, and at quiescence the counters must be exact —
// the tier accounted for every request it accepted, every tenant's
// quota drained to zero, every answer was correct.
func TestServerSoakCounterExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	const (
		clients      = 8
		rounds       = 12
		perBatch     = 6
		streamRounds = 4
	)
	s, err := New(Config{
		Shards:      4,
		TenantQuota: clients * perBatch, // ample: rejects would break exactness by design
		Engine:      query.Options{MaxKernels: 8},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Per-client expected score for its private pair, computed once from
	// the first round and then pinned: any drift under contention is a
	// wrong answer.
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", c)
			private := fmt.Sprintf("client-%d-private-payload", c)
			shared := "the shared contended pair every client solves"
			wantScore := -1
			for round := 0; round < rounds; round++ {
				reqs := make([]WireRequest, 0, perBatch)
				for i := 0; i < perBatch/2; i++ {
					reqs = append(reqs,
						WireRequest{A: private, B: shared, Kind: "score"},
						WireRequest{A: shared, B: shared, Kind: "score"},
					)
				}
				var resp BatchResponse
				code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Tenant: tenant, Requests: reqs}, &resp)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: status %d", c, round, code)
					return
				}
				for i, r := range resp.Results {
					if r.Error != "" {
						errs <- fmt.Errorf("client %d round %d req %d: %s (%s)", c, round, i, r.Error, r.ErrorKind)
						return
					}
					if i%2 == 0 {
						if wantScore == -1 {
							wantScore = r.Score
						} else if r.Score != wantScore {
							errs <- fmt.Errorf("client %d round %d: score drifted %d → %d", c, round, wantScore, r.Score)
							return
						}
					} else if r.Score != len(shared) {
						errs <- fmt.Errorf("client %d round %d: shared self-score %d, want %d", c, round, r.Score, len(shared))
						return
					}
				}
			}
			// A short stream script per client, exercising the stateful path
			// concurrently with the batches of the other clients.
			for round := 0; round < streamRounds; round++ {
				sr := StreamRequest{
					Tenant:  tenant,
					Pattern: fmt.Sprintf("client-%d-pattern", c),
					Ops: []WireOp{
						{Op: "append", Chunk: "abcdefgh"},
						{Op: "query", Kind: "score"},
					},
				}
				var resp StreamResponse
				if code := postJSON(t, ts.URL+"/v1/stream", sr, &resp); code != http.StatusOK {
					errs <- fmt.Errorf("client %d stream round %d: status %d", c, round, code)
					return
				}
				for i, r := range resp.Results {
					if r.Error != "" {
						errs <- fmt.Errorf("client %d stream round %d op %d: %s", c, round, i, r.Error)
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiescent exactness.
	agg := s.Stats()
	wantRequests := int64(clients * (rounds*perBatch + streamRounds*2))
	if agg["server_requests"] != wantRequests {
		t.Errorf("server_requests = %d, want exactly %d", agg["server_requests"], wantRequests)
	}
	if agg["tenant_rejects"] != 0 {
		t.Errorf("tenant_rejects = %d, want 0 under ample quota", agg["tenant_rejects"])
	}
	if agg["requests_inflight"] != 0 {
		t.Errorf("requests_inflight = %d at quiescence, want 0", agg["requests_inflight"])
	}
	// Every batch request reached exactly one engine shard.
	if agg["requests"] != int64(clients*rounds*perBatch) {
		t.Errorf("engine requests = %d, want %d", agg["requests"], clients*rounds*perBatch)
	}
	if agg["cache_hits"]+agg["cache_misses"] == 0 {
		t.Error("no cache traffic recorded")
	}
	for c := 0; c < clients; c++ {
		tenant := fmt.Sprintf("client-%d", c)
		if out := s.tenants.outstanding(tenant); out != 0 {
			t.Errorf("tenant %s outstanding = %d at quiescence, want 0", tenant, out)
		}
	}
	// The shared pair is content-routed: exactly one shard ever solved
	// it, so its kernel was cached once, not once per shard.
	shardsWithTraffic := 0
	for i := 0; i < s.Shards(); i++ {
		if s.shards[i].Stats()["requests"] > 0 {
			shardsWithTraffic++
		}
	}
	if shardsWithTraffic == 0 {
		t.Error("no shard recorded traffic")
	}
}
