package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/query"
)

// serveJSON drives one request through the tier's handler in-process;
// unlike a round trip over a listener, the handler (and every span it
// opened) has returned when serveJSON does.
func serveJSON(t *testing.T, s *Server, path string, v, out any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

// TestServerCountersReconcile runs a mixed load through a 2-shard tier
// sharing one recorder — misses, hits, a shed, a banded score, a
// degraded solve, a health reroute and a stream script — and checks at
// quiescence that every engine and server counter reads the same in
// the recorder, in Server.Stats and (for engine counters) summed over
// ShardStats, that the gauges are back to zero, and that cache_bytes
// is exactly the resident sessions' bytes.
func TestServerCountersReconcile(t *testing.T) {
	rec := obs.New()
	s, err := New(Config{Shards: 2, Engine: query.Options{
		Config:       core.Config{Algorithm: core.AntidiagBranchless, Workers: 2},
		Obs:          rec,
		MaxQueue:     4,
		DegradeBelow: time.Hour,
		Banded:       query.BandedConfig{Enabled: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pairs := [][2]string{
		{"abracadabra", "alakazam-abra"},
		{"GATTACAGATTACA", "TACGATTACATACG"},
		{"mississippi", "missouri river"},
		{"the quick brown fox", "the lazy dog naps"},
		{"sharded serving tier", "serving shards on a ring"},
		{"counter sets", "one counter system"},
	}
	resident := map[[2]string]map[int]bool{} // pair → shards holding its session
	batch := func(reqs []WireRequest) {
		var resp BatchResponse
		serveJSON(t, s, "/v1/batch", BatchRequest{Requests: reqs}, &resp)
		for i, r := range resp.Results {
			if r.Error != "" || reqs[i].Kind == "score" {
				continue // shed, or answered without a session (banded)
			}
			p := [2]string{reqs[i].A, reqs[i].B}
			if resident[p] == nil {
				resident[p] = map[int]bool{}
			}
			resident[p][r.Shard] = true
		}
	}
	windows := func(ps [][2]string) []WireRequest {
		var reqs []WireRequest
		for _, p := range ps {
			reqs = append(reqs, WireRequest{A: p[0], B: p[1], Kind: "windows", Width: 4})
		}
		return reqs
	}
	batch(windows(pairs[:3])) // misses
	batch(windows(pairs[:3])) // hits
	shed := make([]WireRequest, 8)
	for i := range shed {
		shed[i] = WireRequest{A: pairs[0][0], B: pairs[0][1], Kind: "string-substring", From: 1, To: 5}
	}
	batch(shed) // one shard, MaxQueue 4: the tail is shed
	near := strings.Repeat("near-identical inputs take the band ", 8)
	batch([]WireRequest{{A: near, B: near[:100] + "X" + near[101:], Kind: "score"}})
	degraded := windows(pairs[3:4])
	degraded[0].TimeoutMS = 60000 // within DegradeBelow: solved sequentially
	batch(degraded)
	s.SetShardHealth(0, false)
	batch(windows(pairs)) // pairs homed on shard 0 reroute to shard 1
	s.SetShardHealth(0, true)
	var sresp StreamResponse
	serveJSON(t, s, "/v1/stream", StreamRequest{Pattern: "stream pattern", Ops: []WireOp{
		{Op: "append", Chunk: "a stream of text"},
		{Op: "append", Chunk: " and some more"},
		{Op: "query", Kind: "score"},
		{Op: "slide", N: 1},
		{Op: "query", Kind: "best-window", Width: 6},
	}}, &sresp)

	agg := s.Stats()
	for c := obs.CounterID(0); c < obs.NumCounters; c++ {
		switch c.Scope() {
		case obs.ScopeEngine:
			var sum int64
			for i := 0; i < s.Shards(); i++ {
				sum += s.ShardStats(i)[c.String()]
			}
			if sum != agg[c.String()] {
				t.Errorf("%s: shards sum to %d, Stats = %d", c, sum, agg[c.String()])
			}
		case obs.ScopeServer:
		default:
			continue
		}
		if got := rec.Counter(c); got != agg[c.String()] {
			t.Errorf("%s: recorder = %d, Stats = %d", c, got, agg[c.String()])
		}
	}
	for _, c := range []obs.CounterID{
		obs.CounterCacheMisses, obs.CounterCacheHits, obs.CounterSheds,
		obs.CounterBandedRequests, obs.CounterDegradations,
		obs.CounterServerReroutes, obs.CounterStreamsOpened,
		obs.CounterStreamAppendOps, obs.CounterStreamSlideOps,
	} {
		if agg[c.String()] == 0 {
			t.Errorf("the load never bumped %s", c)
		}
	}
	if agg[obs.CounterRequestsInflight.String()] != 0 || rec.OpenSpans() != 0 {
		t.Errorf("at quiescence: requests_inflight = %d, open_spans = %d",
			agg[obs.CounterRequestsInflight.String()], rec.OpenSpans())
	}
	var wantBytes int64
	sessions := 0
	for p, shards := range resident {
		k, err := core.Solve([]byte(p[0]), []byte(p[1]), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += int64(len(shards) * query.NewSession(k).MemoryBytes())
		sessions += len(shards)
	}
	cached := 0
	for _, eng := range s.shards {
		cached += eng.CachedKernels()
	}
	if cached != sessions {
		t.Fatalf("%d resident sessions, the load accounts for %d", cached, sessions)
	}
	if got := agg[obs.CounterCacheBytes.String()]; got != wantBytes {
		t.Errorf("cache_bytes = %d, resident sessions hold %d", got, wantBytes)
	}
}
