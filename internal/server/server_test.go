package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/query"
)

// newTestServer builds a tier plus an httptest front end; both are torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts v and decodes the response body into out, returning
// the HTTP status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode response %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

// wireWorkload is the differential workload: a handful of pairs crossed
// with every query family, in both the wire spelling and the direct
// engine spelling, index-aligned.
func wireWorkload() ([]WireRequest, []query.Request) {
	pairs := [][2]string{
		{"abracadabra", "alakazam-abra"},
		{"the quick brown fox jumps", "the lazy dog naps quickly"},
		{"GATTACAGATTACA", "TACGATTACATACG"},
		{"mississippi", "missouri river"},
		{"sharded serving tier", "serving shards on a ring"},
		{"aaaaaaaaaaaaaaa", "aaabaaaaacaaaaa"},
	}
	var wire []WireRequest
	var direct []query.Request
	add := func(w WireRequest, d query.Request) {
		wire = append(wire, w)
		direct = append(direct, d)
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		ab, bb := []byte(a), []byte(b)
		n := len(bb)
		add(WireRequest{A: a, B: b, Kind: "score"},
			query.Request{A: ab, B: bb, Kind: query.Score})
		add(WireRequest{A: a, B: b, Kind: "string-substring", From: 1, To: n - 2},
			query.Request{A: ab, B: bb, Kind: query.StringSubstring, From: 1, To: n - 2})
		add(WireRequest{A: a, B: b, Kind: "substring-string", From: 2, To: len(ab) - 1},
			query.Request{A: ab, B: bb, Kind: query.SubstringString, From: 2, To: len(ab) - 1})
		add(WireRequest{A: a, B: b, Kind: "suffix-prefix", From: 3, To: n / 2},
			query.Request{A: ab, B: bb, Kind: query.SuffixPrefix, From: 3, To: n / 2})
		add(WireRequest{A: a, B: b, Kind: "prefix-suffix", From: 2, To: 3},
			query.Request{A: ab, B: bb, Kind: query.PrefixSuffix, From: 2, To: 3})
		add(WireRequest{A: a, B: b, Kind: "windows", Width: 5},
			query.Request{A: ab, B: bb, Kind: query.Windows, Width: 5})
		add(WireRequest{A: a, B: b, Kind: "best-window", Width: 7},
			query.Request{A: ab, B: bb, Kind: query.BestWindow, Width: 7})
	}
	return wire, direct
}

// directOracle answers the direct spelling on a plain fault-free
// engine — the ground truth every server configuration must match.
func directOracle(t *testing.T, reqs []query.Request) []query.Result {
	t.Helper()
	e := query.NewEngine(query.Options{})
	defer e.Close()
	out := e.BatchSolve(context.Background(), reqs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("oracle request %d failed: %v", i, r.Err)
		}
	}
	return out
}

func sameAnswer(w WireResult, d query.Result) bool {
	if w.Score != d.Score || w.From != d.From || len(w.Windows) != len(d.Windows) {
		return false
	}
	for i := range w.Windows {
		if w.Windows[i] != d.Windows[i] {
			return false
		}
	}
	return true
}

// TestServerDifferentialBatch is the core of the serving test wall:
// for every query family, over 1- and 4-shard tiers, the HTTP response
// is bit-identical to calling Engine.BatchSolve directly.
func TestServerDifferentialBatch(t *testing.T) {
	wire, direct := wireWorkload()
	want := directOracle(t, direct)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Shards: shards})
			var resp BatchResponse
			if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp); code != http.StatusOK {
				t.Fatalf("status = %d", code)
			}
			if len(resp.Results) != len(want) {
				t.Fatalf("got %d results, want %d", len(resp.Results), len(want))
			}
			for i, r := range resp.Results {
				if r.Error != "" {
					t.Fatalf("request %d failed over HTTP: %s (%s)", i, r.Error, r.ErrorKind)
				}
				if !sameAnswer(r, want[i]) {
					t.Errorf("request %d: HTTP answer %+v != direct %+v", i, r, want[i])
				}
				if r.Shard < 0 || r.Shard >= shards {
					t.Errorf("request %d: shard %d out of range", i, r.Shard)
				}
			}
		})
	}
}

// TestServerDifferentialBase64 pins the byte-transparent spelling:
// arbitrary (non-UTF-8) input bytes posted via a64/b64 answer exactly
// like the direct call.
func TestServerDifferentialBase64(t *testing.T) {
	a := []byte{0x00, 0xff, 0x80, 'x', 0x00, 0x7f, 0xfe, 0x01}
	b := []byte{0xff, 0x00, 'x', 0x80, 0x01, 0xfe}
	want := directOracle(t, []query.Request{{A: a, B: b, Kind: query.Score}})
	_, ts := newTestServer(t, Config{Shards: 2})
	req := WireRequest{
		A64:  base64String(a),
		B64:  base64String(b),
		Kind: "score",
	}
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []WireRequest{req}}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if r := resp.Results[0]; r.Error != "" || r.Score != want[0].Score {
		t.Fatalf("base64 answer %+v, want score %d", r, want[0].Score)
	}
}

func base64String(b []byte) string {
	return base64.StdEncoding.EncodeToString(b)
}

// TestServerDifferentialChaosBenign: under injected latency, worker
// stalls, eviction storms, and shard-level latency — faults that delay
// or discard work but never corrupt it — every HTTP answer stays
// bit-identical to the direct fault-free oracle.
func TestServerDifferentialChaosBenign(t *testing.T) {
	wire, direct := wireWorkload()
	want := directOracle(t, direct)
	inj, err := chaos.New(chaos.Config{
		Seed: 0x5e41,
		Rules: []chaos.Rule{
			{Point: chaos.PointAcquire, Fault: chaos.FaultLatency, PerMille: 300, Latency: 100 * time.Microsecond},
			{Point: chaos.PointWorker, Fault: chaos.FaultStall, PerMille: 200, Latency: 100 * time.Microsecond},
			{Point: chaos.PointPublish, Fault: chaos.FaultEvict, PerMille: 300},
			{Point: chaos.PointShard, Fault: chaos.FaultLatency, PerMille: 300, Latency: 100 * time.Microsecond},
		},
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	_, ts := newTestServer(t, Config{
		Shards: 4,
		Engine: query.Options{Chaos: inj, MaxKernels: 4},
	})
	for round := 0; round < 3; round++ {
		var resp BatchResponse
		if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		for i, r := range resp.Results {
			if r.Error != "" {
				t.Fatalf("round %d request %d failed under benign chaos: %s (%s)", round, i, r.Error, r.ErrorKind)
			}
			if !sameAnswer(r, want[i]) {
				t.Errorf("round %d request %d: answer diverged under benign chaos", round, i)
			}
		}
	}
}

// allowedChaosKind are the typed wire kinds an error/cancel chaos run
// may legitimately surface.
func allowedChaosKind(kind string) bool {
	switch kind {
	case "injected", "shed", "deadline", "canceled":
		return true
	}
	return false
}

// TestServerChaosErrorsAreTyped: under error and cancel injection each
// response is either bit-identical to the fault-free answer or carries
// one of the typed error kinds — never a wrong answer, never an
// unclassified error.
func TestServerChaosErrorsAreTyped(t *testing.T) {
	wire, direct := wireWorkload()
	want := directOracle(t, direct)
	inj, err := chaos.New(chaos.Config{
		Seed: 0x5e42,
		Rules: []chaos.Rule{
			{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 250},
			{Point: chaos.PointAcquire, Fault: chaos.FaultCancel, PerMille: 150},
		},
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	_, ts := newTestServer(t, Config{
		Shards: 3,
		Engine: query.Options{Chaos: inj},
	})
	sawError := false
	for round := 0; round < 4; round++ {
		var resp BatchResponse
		if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		for i, r := range resp.Results {
			if r.Error != "" {
				sawError = true
				if !allowedChaosKind(r.ErrorKind) {
					t.Errorf("round %d request %d: error kind %q (%s) not a typed chaos failure", round, i, r.ErrorKind, r.Error)
				}
				continue
			}
			if !sameAnswer(r, want[i]) {
				t.Errorf("round %d request %d: WRONG ANSWER under error chaos", round, i)
			}
		}
	}
	if !sawError {
		t.Fatal("error chaos injected nothing — schedule is dead, test proves nothing")
	}
}

// TestServerShardKillDegrades is the tentpole acceptance claim: with a
// chaos rule killing every arrival's home shard, the 4-shard tier
// reroutes around the corpse — zero failed requests, zero wrong
// answers, reroutes observed.
func TestServerShardKillDegrades(t *testing.T) {
	wire, direct := wireWorkload()
	want := directOracle(t, direct)
	inj, err := chaos.New(chaos.Config{
		Seed:  0x5e43,
		Rules: []chaos.Rule{{Point: chaos.PointShard, Fault: chaos.FaultError, PerMille: 1000}},
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	s, ts := newTestServer(t, Config{
		Shards: 4,
		Engine: query.Options{Chaos: inj},
	})
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("request %d failed during shard kill: %s (%s)", i, r.Error, r.ErrorKind)
		}
		if !sameAnswer(r, want[i]) {
			t.Errorf("request %d: WRONG ANSWER during shard kill", i)
		}
	}
	if got := s.Stats()["server_reroutes"]; got != int64(len(wire)) {
		t.Errorf("server_reroutes = %d, want %d (every request rerouted)", got, len(wire))
	}
}

// TestServerHealthDownShards: marking shards down operationally behaves
// like the chaos kill — degraded while any shard lives, typed
// "unavailable" when none does, and /healthz flips to 503.
func TestServerHealthDownShards(t *testing.T) {
	wire, direct := wireWorkload()
	want := directOracle(t, direct)
	s, ts := newTestServer(t, Config{Shards: 3})

	s.SetShardHealth(0, false)
	s.SetShardHealth(1, false)
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("request %d failed with one shard up: %s", i, r.Error)
		}
		if r.Shard != 2 {
			t.Errorf("request %d served by shard %d, only shard 2 is up", i, r.Shard)
		}
		if !sameAnswer(r, want[i]) {
			t.Errorf("request %d: wrong answer on survivor shard", i)
		}
	}

	s.SetShardHealth(2, false)
	if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire[:2]}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for i, r := range resp.Results {
		if r.ErrorKind != "unavailable" {
			t.Errorf("request %d with all shards down: kind %q, want unavailable", i, r.ErrorKind)
		}
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with all shards down = %d, want 503", hr.StatusCode)
	}

	s.SetShardHealth(1, true)
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz with a shard restored = %d, want 200", hr.StatusCode)
	}
}

// TestServerRebalanceDrill is the rebalance drill: shards leave and
// rejoin the tier mid-load through SetShardHealth while concurrent
// differential batches keep flowing. Every answer stays bit-identical
// to the fault-free oracle through both transitions, the traffic that
// left the down shard is visible in server_reroutes, and the rebalance
// property is pinned on the same live tier: marking a shard down moves
// exactly the pairs it was home to (each to a survivor, within the
// fair-share movement bound) and marking it up again restores the
// original assignment pair for pair.
func TestServerRebalanceDrill(t *testing.T) {
	wire, direct := wireWorkload()
	want := directOracle(t, direct)

	s, ts := newTestServer(t, Config{Shards: 4})
	const workers = 4
	post := func() (BatchResponse, error) {
		body, err := json.Marshal(BatchRequest{Requests: wire})
		if err != nil {
			return BatchResponse{}, err
		}
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return BatchResponse{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return BatchResponse{}, fmt.Errorf("status %d", resp.StatusCode)
		}
		var br BatchResponse
		return br, json.NewDecoder(resp.Body).Decode(&br)
	}
	// Each round fans the workload out across concurrent posters while
	// the main goroutine drives the shard membership schedule between
	// rounds: shard 2 leaves, rejoins, then shard 0 leaves and rejoins.
	for round := 0; round < 8; round++ {
		switch round {
		case 2:
			s.SetShardHealth(2, false)
		case 4:
			s.SetShardHealth(2, true)
			s.SetShardHealth(0, false)
		case 6:
			s.SetShardHealth(0, true)
		}
		type outcome struct {
			br  BatchResponse
			err error
		}
		results := make(chan outcome, workers)
		for w := 0; w < workers; w++ {
			go func() {
				br, err := post()
				results <- outcome{br, err}
			}()
		}
		for w := 0; w < workers; w++ {
			oc := <-results
			if oc.err != nil {
				t.Fatalf("round %d: post failed: %v", round, oc.err)
			}
			if len(oc.br.Results) != len(want) {
				t.Fatalf("round %d: %d results, want %d", round, len(oc.br.Results), len(want))
			}
			for i, r := range oc.br.Results {
				if r.Error != "" {
					t.Fatalf("round %d request %d: a healthy-majority tier must answer, got %s (%s)",
						round, i, r.Error, r.ErrorKind)
				}
				if !sameAnswer(r, want[i]) {
					t.Errorf("round %d request %d: rebalanced answer diverged: %+v", round, i, r)
				}
			}
		}
	}
	if rerouted := s.Stats()["server_reroutes"]; rerouted == 0 {
		t.Error("a drill that downs two home shards must reroute some traffic")
	}

	// The rebalance property on this tier's own routing: shard 2 goes
	// down and comes back up, and route sees every pair before, during
	// and after.
	pairs := randPairs(rand.New(rand.NewSource(0x11aa)), 4000)
	routeAll := func() []int {
		ids := make([]int, len(pairs))
		for i, p := range pairs {
			id, err := s.route(p[0], p[1])
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			ids[i] = id
		}
		return ids
	}
	before := routeAll()
	s.SetShardHealth(2, false)
	during := routeAll()
	s.SetShardHealth(2, true)
	after := routeAll()
	moved := 0
	for i := range pairs {
		was, is := before[i], during[i]
		if was != is {
			if was != 2 {
				t.Fatalf("pair on surviving shard moved %d → %d when shard 2 went down", was, is)
			}
			moved++
		} else if was == 2 {
			t.Fatal("a pair still routes to the down shard")
		}
		if after[i] != was {
			t.Fatalf("marking shard 2 up again routed a pair to %d, was %d", after[i], was)
		}
	}
	if moved == 0 {
		t.Fatal("marking a shard down moved no pairs")
	}
	if moved > len(pairs)/2 {
		t.Errorf("downing 1 of 4 shards moved %d/%d pairs, want ≤ half", moved, len(pairs))
	}
}

// TestPlacementDeterministic pins placement as a pure function of the
// ordered pair: two fresh tiers given the same mixed batch — score
// requests the banded path answers, kernel queries, and every pair also
// swapped to (b, a) — put each request on the same shard, that shard is
// the rendezvous home of place(a, b), and every answer matches the
// plain-engine oracle.
func TestPlacementDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11ac))
	var wire []WireRequest
	var direct []query.Request
	add := func(a, b, kind string, from, to, width int) {
		k, err := query.ParseKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, WireRequest{A: a, B: b, Kind: kind, From: from, To: to, Width: width})
		direct = append(direct, query.Request{A: []byte(a), B: []byte(b), Kind: k, From: from, To: to, Width: width})
	}
	for i := 0; i < 6; i++ {
		a, b := nearPair(rng, 1500, 3)
		for _, p := range [][2]string{{a, b}, {b, a}} {
			add(p[0], p[1], "score", 0, 0, 0)
			add(p[0][:120], p[1][:100], "string-substring", 10, 90, 0)
			add(p[0][:120], p[1][:100], "windows", 0, 0, 32)
		}
	}
	want := directOracle(t, direct)

	var shards [2][]int
	for run := range shards {
		s, err := New(Config{Shards: 4, Engine: query.Options{Workers: 2, Banded: query.BandedConfig{Enabled: true}}})
		if err != nil {
			t.Fatal(err)
		}
		var resp BatchResponse
		serveJSON(t, s, "/v1/batch", BatchRequest{Requests: wire}, &resp)
		for i, r := range resp.Results {
			if r.Error != "" {
				t.Fatalf("run %d request %d failed: %s (%s)", run, i, r.Error, r.ErrorKind)
			}
			if !sameAnswer(r, want[i]) {
				t.Errorf("run %d request %d: answer %+v != oracle %+v", run, i, r, want[i])
			}
			if home, _ := pick(place(direct[i].A, direct[i].B), s.down, -1); r.Shard != home {
				t.Errorf("run %d request %d: shard %d, want the placement's home %d", run, i, r.Shard, home)
			}
			shards[run] = append(shards[run], r.Shard)
		}
		if got := s.Stats()["requests_banded"]; got == 0 {
			t.Errorf("run %d: no score request was answered on the banded path", run)
		}
		s.Close()
	}
	if !reflect.DeepEqual(shards[0], shards[1]) {
		t.Errorf("fresh tiers placed the batch differently:\n%v\n%v", shards[0], shards[1])
	}
}

// TestTenantTableBounded: a client cycling through distinct valid
// tenant names leaves no trace once its requests drain — the quota
// table holds only tenants with requests in flight.
func TestTenantTableBounded(t *testing.T) {
	tt := newTenantTable(2)
	size := func() int {
		tt.mu.Lock()
		defer tt.mu.Unlock()
		return len(tt.out)
	}
	const tenants = 10000
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if got := tt.admit(name, 3); got != 2 {
			t.Fatalf("%s: admitted %d of 3, want the quota 2", name, got)
		}
		if i%2 == 0 {
			tt.release(name, 2)
		} else {
			tt.release(name, 1)
			tt.release(name, 1)
		}
		if got := tt.outstanding(name); got != 0 {
			t.Fatalf("%s: %d outstanding after release, want 0", name, got)
		}
	}
	if n := size(); n != 0 {
		t.Fatalf("tenant table holds %d entries after %d tenants drained, want 0", n, tenants)
	}
	// A partly released tenant keeps its entry until the last slot.
	tt.admit("held", 2)
	tt.release("held", 1)
	if n, out := size(), tt.outstanding("held"); n != 1 || out != 1 {
		t.Fatalf("partly released tenant: %d entries, %d outstanding, want 1 and 1", n, out)
	}
	tt.release("held", 1)
	if n := size(); n != 0 {
		t.Fatalf("tenant table holds %d entries after the last release, want 0", n)
	}
}

// TestServerTenantQuota: a batch larger than the tenant's quota admits
// the head and rejects the tail typed; quota drains after the call so
// the next batch is admitted again; other tenants are unaffected.
func TestServerTenantQuota(t *testing.T) {
	wire, _ := wireWorkload()
	s, ts := newTestServer(t, Config{Shards: 2, TenantQuota: 3})
	batch := BatchRequest{Tenant: "alice", Requests: wire[:5]}
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for i, r := range resp.Results {
		if i < 3 && r.Error != "" {
			t.Errorf("admitted request %d failed: %s", i, r.Error)
		}
		if i >= 3 && r.ErrorKind != "quota" {
			t.Errorf("request %d past quota: kind %q, want quota", i, r.ErrorKind)
		}
	}
	if got := s.Stats()["tenant_rejects"]; got != 2 {
		t.Errorf("tenant_rejects = %d, want 2", got)
	}
	if out := s.tenants.outstanding("alice"); out != 0 {
		t.Errorf("alice outstanding = %d after batch returned, want 0", out)
	}
	// Quota released: a follow-up small batch sails through, as does an
	// independent tenant.
	for _, tenant := range []string{"alice", "bob"} {
		if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Tenant: tenant, Requests: wire[:2]}, &resp); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		for i, r := range resp.Results {
			if r.Error != "" {
				t.Errorf("tenant %s request %d: %s", tenant, i, r.Error)
			}
		}
	}
}

// TestServerStreamDifferential: a stream op script over HTTP answers
// exactly like driving query.Stream directly.
func TestServerStreamDifferential(t *testing.T) {
	pattern := "semilocal-stream-pattern"
	ops := []WireOp{
		{Op: "append", Chunk: "the quick brown fox jumps over"},
		{Op: "query", Kind: "score"},
		{Op: "append", Chunk: " the lazy dog"},
		{Op: "query", Kind: "best-window", Width: 9},
		{Op: "slide", N: 1},
		{Op: "query", Kind: "windows", Width: 6},
		{Op: "query", Kind: "suffix-prefix", From: 2, To: 8},
	}

	// Direct oracle.
	e := query.NewEngine(query.Options{})
	defer e.Close()
	st, err := e.OpenStream([]byte(pattern))
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	ctx := context.Background()
	var want []query.Result
	for _, op := range ops {
		switch op.Op {
		case "append":
			if err := st.Append(ctx, []byte(op.Chunk)); err != nil {
				t.Fatalf("direct append: %v", err)
			}
			want = append(want, query.Result{})
		case "slide":
			if err := st.Slide(ctx, op.N); err != nil {
				t.Fatalf("direct slide: %v", err)
			}
			want = append(want, query.Result{})
		case "query":
			kind, err := query.ParseKind(op.Kind)
			if err != nil {
				t.Fatalf("kind: %v", err)
			}
			res := st.Query(query.Request{Kind: kind, From: op.From, To: op.To, Width: op.Width})
			if res.Err != nil {
				t.Fatalf("direct query: %v", res.Err)
			}
			want = append(want, res)
		}
	}

	_, ts := newTestServer(t, Config{Shards: 4})
	var resp StreamResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{Pattern: pattern, Ops: ops}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != len(ops) {
		t.Fatalf("got %d op results, want %d", len(resp.Results), len(ops))
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("op %d failed over HTTP: %s (%s)", i, r.Error, r.ErrorKind)
		}
		if ops[i].Op != "query" {
			continue
		}
		if r.Score != want[i].Score || r.From != want[i].From || len(r.Windows) != len(want[i].Windows) {
			t.Errorf("op %d: HTTP %+v != direct %+v", i, r, want[i])
		}
		for j := range r.Windows {
			if r.Windows[j] != want[i].Windows[j] {
				t.Errorf("op %d window %d diverged", i, j)
			}
		}
	}
	if resp.Shard < 0 || resp.Shard >= 4 {
		t.Errorf("stream shard %d out of range", resp.Shard)
	}
}

// TestServerStreamAffinity: the same pattern lands on the same shard
// every call — the routing is content-addressed, not round-robin.
func TestServerStreamAffinity(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4})
	req := StreamRequest{Pattern: "sticky-pattern", Ops: []WireOp{{Op: "append", Chunk: "abcdef"}}}
	var first StreamResponse
	postJSON(t, ts.URL+"/v1/stream", req, &first)
	for i := 0; i < 5; i++ {
		var resp StreamResponse
		if code := postJSON(t, ts.URL+"/v1/stream", req, &resp); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if resp.Shard != first.Shard {
			t.Fatalf("pattern moved shard %d → %d between calls", first.Shard, resp.Shard)
		}
	}
}

// TestServerStreamGroupDifferential: the multi-pattern form of
// /v1/stream answers every pattern's queries exactly like independent
// single-pattern engine streams fed the same chunks, while reporting
// the duplicate-collapsed spine count.
func TestServerStreamGroupDifferential(t *testing.T) {
	patterns := []string{"gattaca", "tac", "gattaca", "quick brown"}
	ops := []WireOp{
		{Op: "append", Chunk: "the quick brown fox"},
		{Op: "query", Kind: "score"},
		{Op: "query", Kind: "score", Pat: 1},
		{Op: "append", Chunk: " jumps over the lazy dog"},
		{Op: "query", Kind: "best-window", Width: 7, Pat: 3},
		{Op: "query", Kind: "windows", Width: 5, Pat: 1},
		{Op: "slide", N: 1},
		{Op: "query", Kind: "score", Pat: 2},
		{Op: "query", Kind: "suffix-prefix", From: 1, To: 6, Pat: 0},
	}

	// Direct oracle: one independent engine stream per pattern.
	e := query.NewEngine(query.Options{})
	defer e.Close()
	ctx := context.Background()
	sts := make([]*query.Stream, len(patterns))
	for i, p := range patterns {
		var err error
		if sts[i], err = e.OpenStream([]byte(p)); err != nil {
			t.Fatalf("OpenStream %d: %v", i, err)
		}
	}
	var want []query.Result
	for _, op := range ops {
		switch op.Op {
		case "append":
			for i := range sts {
				if err := sts[i].Append(ctx, []byte(op.Chunk)); err != nil {
					t.Fatalf("direct append: %v", err)
				}
			}
			want = append(want, query.Result{})
		case "slide":
			for i := range sts {
				if err := sts[i].Slide(ctx, op.N); err != nil {
					t.Fatalf("direct slide: %v", err)
				}
			}
			want = append(want, query.Result{})
		case "query":
			kind, err := query.ParseKind(op.Kind)
			if err != nil {
				t.Fatalf("kind: %v", err)
			}
			res := sts[op.Pat].Query(query.Request{Kind: kind, From: op.From, To: op.To, Width: op.Width})
			if res.Err != nil {
				t.Fatalf("direct query: %v", res.Err)
			}
			want = append(want, res)
		}
	}

	_, ts := newTestServer(t, Config{Shards: 4})
	var resp StreamResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{Patterns: patterns, Ops: ops}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Patterns != 4 || resp.Distinct != 3 {
		t.Fatalf("patterns=%d distinct=%d, want 4 and 3 (duplicate gattaca collapses)", resp.Patterns, resp.Distinct)
	}
	if len(resp.Results) != len(ops) {
		t.Fatalf("got %d op results, want %d", len(resp.Results), len(ops))
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("op %d failed over HTTP: %s (%s)", i, r.Error, r.ErrorKind)
		}
		if ops[i].Op != "query" {
			continue
		}
		if r.Pat != ops[i].Pat {
			t.Errorf("op %d answered for pattern %d, want %d", i, r.Pat, ops[i].Pat)
		}
		if r.Score != want[i].Score || r.From != want[i].From || len(r.Windows) != len(want[i].Windows) {
			t.Errorf("op %d: HTTP %+v != direct %+v", i, r, want[i])
		}
		for j := range r.Windows {
			if r.Windows[j] != want[i].Windows[j] {
				t.Errorf("op %d window %d diverged", i, j)
			}
		}
	}
	if resp.Shard < 0 || resp.Shard >= 4 {
		t.Errorf("group shard %d out of range", resp.Shard)
	}
}

// TestServerStreamGroupAffinity: a pattern set is content-addressed as
// a whole — the same set always lands on one shard.
func TestServerStreamGroupAffinity(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4})
	req := StreamRequest{
		Patterns: []string{"sticky", "group", "sticky"},
		Ops:      []WireOp{{Op: "append", Chunk: "abcdef"}},
	}
	var first StreamResponse
	postJSON(t, ts.URL+"/v1/stream", req, &first)
	for i := 0; i < 5; i++ {
		var resp StreamResponse
		if code := postJSON(t, ts.URL+"/v1/stream", req, &resp); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if resp.Shard != first.Shard {
			t.Fatalf("pattern set moved shard %d → %d between calls", first.Shard, resp.Shard)
		}
	}
}

// TestServerStreamGroupErrors pins the group wire's failure surface:
// ambiguous or oversized pattern sets are whole-call 4xx errors, while
// a bad pattern index fails only its own op slot.
func TestServerStreamGroupErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Shards:       2,
		MaxBatch:     4,
		MaxPairBytes: 64,
	})
	post := func(body string) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var eb errorBody
		raw, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(raw, &eb)
		return resp.StatusCode, eb
	}
	cases := []struct {
		name string
		body string
		code int
	}{
		{"pattern and patterns", `{"pattern": "p", "patterns": ["q"], "ops": []}`, http.StatusBadRequest},
		{"pattern64 and patterns", `{"pattern64": "cA==", "patterns": ["q"], "ops": []}`, http.StatusBadRequest},
		{"patterns and patterns64", `{"patterns": ["p"], "patterns64": ["cQ=="], "ops": []}`, http.StatusBadRequest},
		{"bad patterns64", `{"patterns64": ["!!!"], "ops": []}`, http.StatusBadRequest},
		{"too many patterns", `{"patterns": ["a","b","c","d","e"], "ops": []}`, http.StatusBadRequest},
		{"patterns too large", `{"patterns": ["` + strings.Repeat("x", 40) + `", "` + strings.Repeat("y", 40) + `"], "ops": []}`, http.StatusBadRequest},
		{"valid group", `{"patterns": ["ab", "ba"], "ops": [{"op": "append", "chunk": "abba"}]}`, http.StatusOK},
	}
	for _, tc := range cases {
		code, eb := post(tc.body)
		if code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, code, tc.code, eb.Error)
		}
		if code >= 400 && eb.Error == "" {
			t.Errorf("%s: %d response without JSON error body", tc.name, code)
		}
	}

	// Per-op failures: out-of-range pattern index in group mode, and a
	// pattern index on a single-pattern stream — each fails its slot
	// only, later ops keep answering.
	var resp StreamResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{
		Patterns: []string{"ab", "ba"},
		Ops: []WireOp{
			{Op: "append", Chunk: "abba"},
			{Op: "query", Kind: "score", Pat: 2},
			{Op: "query", Kind: "score", Pat: -1},
			{Op: "query", Kind: "score", Pat: 1},
		},
	}, &resp); code != http.StatusOK {
		t.Fatalf("group status = %d", code)
	}
	if resp.Results[1].ErrorKind != "invalid" || resp.Results[2].ErrorKind != "invalid" {
		t.Errorf("out-of-range pattern indices must fail typed: %+v", resp.Results[1:3])
	}
	if resp.Results[3].Error != "" || resp.Results[3].Score != 2 {
		t.Errorf("in-range query after failed ops: %+v", resp.Results[3])
	}
	var sresp StreamResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{
		Pattern: "ab",
		Ops: []WireOp{
			{Op: "append", Chunk: "abba"},
			{Op: "query", Kind: "score", Pat: 1},
		},
	}, &sresp); code != http.StatusOK {
		t.Fatalf("single status = %d", code)
	}
	if sresp.Results[1].ErrorKind != "invalid" {
		t.Errorf("pat on a single-pattern stream must fail typed: %+v", sresp.Results[1])
	}
}

// TestServerStreamSpellingsOnePath: {"pattern": p} and {"patterns": [p]}
// are one request — the same one-pattern group on the same shard, with
// identical op results, including a failed op.
func TestServerStreamSpellingsOnePath(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4})
	ops := []WireOp{
		{Op: "append", Chunk: "the quick brown fox"},
		{Op: "query", Kind: "score"},
		{Op: "append", Chunk: " jumps over the lazy dog"},
		{Op: "query", Kind: "best-window", Width: 5},
		{Op: "slide", N: 1},
		{Op: "query", Kind: "windows", Width: 4},
		{Op: "query", Kind: "suffix-prefix", From: 1, To: 6},
		{Op: "query", Kind: "score", Pat: 1},
	}
	for _, p := range []string{"gattaca", "quick", "lazy dog", "o", "", "semilocal-stream-pattern", "brown fox jumps"} {
		var single, group StreamResponse
		if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{Pattern: p, Ops: ops}, &single); code != http.StatusOK {
			t.Fatalf("pattern %q: status = %d", p, code)
		}
		if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{Patterns: []string{p}, Ops: ops}, &group); code != http.StatusOK {
			t.Fatalf("patterns [%q]: status = %d", p, code)
		}
		if single.Shard != group.Shard {
			t.Errorf("pattern %q: shard %d, as a set of one shard %d", p, single.Shard, group.Shard)
		}
		if single.Patterns != 1 || single.Distinct != 1 {
			t.Errorf("pattern %q: patterns=%d distinct=%d, want 1 and 1", p, single.Patterns, single.Distinct)
		}
		if last := single.Results[len(ops)-1]; last.ErrorKind != "invalid" {
			t.Errorf("pattern %q: pat 1 on a one-pattern stream must fail typed: %+v", p, last)
		}
		if !reflect.DeepEqual(single, group) {
			t.Errorf("pattern %q: spellings diverged:\n pattern:  %+v\n patterns: %+v", p, single, group)
		}
	}
}

// TestServerHTTPErrors pins the HTTP-level failure surface: methods,
// malformed bodies, limits and identifiers all fail with the right
// status and a JSON error body, never a 200.
func TestServerHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Shards:       2,
		MaxBodyBytes: 4096,
		MaxBatch:     4,
		MaxPairBytes: 64,
	})
	post := func(path, body string) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var eb errorBody
		raw, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(raw, &eb)
		return resp.StatusCode, eb
	}

	if resp, err := http.Get(ts.URL + "/v1/batch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/batch = %d, want 405", resp.StatusCode)
		}
	}

	cases := []struct {
		name string
		path string
		body string
		code int
	}{
		{"malformed JSON", "/v1/batch", `{"requests": [`, http.StatusBadRequest},
		{"unknown field", "/v1/batch", `{"requestz": []}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/batch", `{"requests": []} extra`, http.StatusBadRequest},
		{"trailing brackets", "/v1/batch", `{"requests": []}]]]garbage`, http.StatusBadRequest},
		{"trailing brace", "/v1/batch", `{"requests": []}}`, http.StatusBadRequest},
		{"stream trailing brackets", "/v1/stream", `{"pattern": "p", "ops": []}]]]garbage`, http.StatusBadRequest},
		{"stream trailing brace", "/v1/stream", `{"pattern": "p", "ops": []}}`, http.StatusBadRequest},
		{"escaped trailing brace", "/v1/batch", `{"tenant": "\u0061", "requests": []}}`, http.StatusBadRequest},
		{"bad tenant", "/v1/batch", `{"tenant": "no spaces!", "requests": []}`, http.StatusBadRequest},
		{"tenant too long", "/v1/batch", `{"tenant": "` + strings.Repeat("x", 65) + `", "requests": []}`, http.StatusBadRequest},
		{"batch too large", "/v1/batch", `{"requests": [{"kind":"score"},{"kind":"score"},{"kind":"score"},{"kind":"score"},{"kind":"score"}]}`, http.StatusBadRequest},
		{"oversized body", "/v1/batch", `{"requests": [{"a": "` + strings.Repeat("x", 8192) + `", "kind":"score"}]}`, http.StatusRequestEntityTooLarge},
		{"stream bad op", "/v1/stream", `{"pattern": "p", "ops": [{"op": "rewind"}]}`, http.StatusOK}, // per-op error, not HTTP error
		{"stream oversized pattern", "/v1/stream", `{"pattern": "` + strings.Repeat("y", 65) + `", "ops": []}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, eb := post(tc.path, tc.body)
		if code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, code, tc.code, eb.Error)
		}
		if code >= 400 && eb.Error == "" {
			t.Errorf("%s: %d response without JSON error body", tc.name, code)
		}
	}

	// Per-request failures keep batch alignment and stay typed.
	var resp BatchResponse
	batch := BatchRequest{Requests: []WireRequest{
		{A: "ok", B: "ok", Kind: "score"},
		{A: "x", B: "y", Kind: "no-such-kind"},
		{A: strings.Repeat("a", 40), B: strings.Repeat("b", 40), Kind: "score"}, // pair over 64
		{A: "both", A64: "Ym90aA==", B: "y", Kind: "score"},
	}}
	if code := postJSON(t, ts.URL+"/v1/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("mixed batch status = %d", code)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("valid request failed: %s", resp.Results[0].Error)
	}
	for i, wantKind := range map[int]string{1: "invalid", 2: "too_large", 3: "invalid"} {
		if got := resp.Results[i].ErrorKind; got != wantKind {
			t.Errorf("request %d: kind %q, want %q", i, got, wantKind)
		}
	}

	// Unknown op inside a stream script fails in its slot only.
	var sresp StreamResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamRequest{Pattern: "p", Ops: []WireOp{
		{Op: "append", Chunk: "abc"},
		{Op: "rewind"},
	}}, &sresp); code != http.StatusOK {
		t.Fatalf("stream status = %d", code)
	}
	if sresp.Results[0].Error != "" {
		t.Errorf("valid op failed: %s", sresp.Results[0].Error)
	}
	if sresp.Results[1].ErrorKind != "invalid" {
		t.Errorf("unknown op kind = %q, want invalid", sresp.Results[1].ErrorKind)
	}
}

// TestServerMetrics: the exposition carries the aggregate counters, the
// per-shard split, and shard health; the per-shard split sums to the
// aggregate for the engine counters.
func TestServerMetrics(t *testing.T) {
	wire, _ := wireWorkload()
	s, ts := newTestServer(t, Config{Shards: 3})
	var resp BatchResponse
	postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp)
	postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: wire}, &resp)

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mr.Body.Close()
	raw, _ := io.ReadAll(mr.Body)
	text := string(raw)
	for _, want := range []string{
		`semilocal_engine_counter{name="server_requests"} ` + fmt.Sprint(2*len(wire)),
		`semilocal_shard_counter{shard="0",name=`,
		`semilocal_shard_counter{shard="2",name=`,
		`semilocal_shard_healthy{shard="1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	agg := s.Stats()
	sum := map[string]int64{}
	for i := 0; i < s.Shards(); i++ {
		for k, v := range s.ShardStats(i) {
			sum[k] += v
		}
	}
	for k, v := range sum {
		if agg[k] != v {
			t.Errorf("aggregate %s = %d, shard sum = %d", k, agg[k], v)
		}
	}
	// Cache effectiveness across calls: second identical batch must hit.
	if sum["cache_hits"] == 0 {
		t.Error("no cache hits across two identical batches — sharding broke cache affinity")
	}
}

// TestServerConfigValidation: shard counts out of range are rejected at
// construction.
func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Error("Shards: -1 accepted")
	}
	if _, err := New(Config{Shards: MaxShards + 1}); err == nil {
		t.Error("Shards over MaxShards accepted")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if s.Shards() != 1 {
		t.Errorf("zero config shards = %d, want 1", s.Shards())
	}
	s.Close()
}
