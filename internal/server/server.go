// Package server is the network-native sharded serving tier over the
// batch query engine: N independent query.Engine shards behind a
// consistent-hash ring on the kernel-cache content key (store.KeyOf),
// fronted by an HTTP/JSON API (batch solves and query families on
// /v1/batch, streaming op scripts on /v1/stream, Prometheus text on
// /metrics, liveness on /healthz).
//
// Sharding by content hash means both cache capacity and solve
// throughput scale horizontally in one process: every shard owns its
// own LRU session cache, worker pool, and counters, and a given input
// pair always lands on the same shard (so the singleflight dedup and
// cache locality of internal/query keep working per shard). A batch
// request's pair is hashed once: the key that routes it also keys the
// shard's cache, singleflight and store. Per-tenant
// quotas layer on top of the per-shard MaxQueue/Deadline/retry/shed
// machinery: the engine bound protects the process, the tenant bound
// protects tenants from each other.
//
// The tier degrades rather than fails: a shard killed by chaos
// (chaos.PointShard) or marked unhealthy is routed around by walking
// the ring to the next healthy shard — answers stay bit-identical
// (every shard solves the same kernels), only cache locality suffers.
// Requests fail typed (shed, quota, deadline, canceled, injected,
// unavailable) and only when there is genuinely no way to answer.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"semilocal/internal/chaos"
	"semilocal/internal/obs"
	"semilocal/internal/query"
	"semilocal/internal/store"
)

// MaxShards bounds Config.Shards: the ring's failover walk tracks
// visited shards in a 64-bit set, and one process has no business
// running more engine shards than that anyway.
const MaxShards = 64

// Config configures a Server.
type Config struct {
	// Shards is the number of engine shards (0 → 1, max MaxShards).
	// Engine.MaxKernels applies per shard, so aggregate cache capacity
	// is Shards × MaxKernels — the horizontal-scaling knob.
	Shards int
	// Engine is the per-shard engine template. Every shard engine keeps
	// its own counters (see ShardStats); Obs and Chaos are shared across
	// shards and consulted by the router itself.
	Engine query.Options
	// TenantQuota bounds each tenant's outstanding requests across the
	// whole tier; 0 disables per-tenant admission.
	TenantQuota int
	// MaxBodyBytes caps an HTTP request body (0 → DefaultMaxBodyBytes);
	// larger bodies get 413.
	MaxBodyBytes int64
	// MaxBatch caps requests per batch call and ops per stream call
	// (0 → DefaultMaxBatch).
	MaxBatch int
	// MaxPairBytes caps len(a)+len(b) per request (0 →
	// DefaultMaxPairBytes): a kernel solve is Θ(len(a)·len(b)), so the
	// wire must not sell unbounded compute.
	MaxPairBytes int
	// Vnodes is the consistent-hash virtual-node count per shard
	// (0 → 128).
	Vnodes int
}

// shardSlot is one engine shard.
type shardSlot struct {
	id  int
	eng *query.Engine
}

// Server is the sharded serving tier. Construct with New, expose
// Handler through an http.Server, Close when done (closes the shard
// engines; the caller owns listener and store lifecycles).
type Server struct {
	shards  []*shardSlot
	ring    *ring
	tenants *tenantTable
	rec     *obs.Recorder
	inj     *chaos.Injector
	ctr     *obs.CounterSet // tier-level counters (obs.ScopeServer)
	mux     *http.ServeMux
	down    []atomic.Bool
	closed  atomic.Bool

	maxBody  int64
	maxBatch int
	maxPair  int
}

// New builds the tier: the shard engines, the ring, the quota table,
// and the HTTP mux.
func New(cfg Config) (*Server, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("server: shards %d out of [1,%d]", cfg.Shards, MaxShards)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	maxBatch := cfg.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	maxPair := cfg.MaxPairBytes
	if maxPair == 0 {
		maxPair = DefaultMaxPairBytes
	}
	s := &Server{
		ring:     newRing(n, cfg.Vnodes),
		tenants:  newTenantTable(cfg.TenantQuota),
		rec:      cfg.Engine.Obs,
		inj:      cfg.Engine.Chaos,
		ctr:      obs.NewCounterSet(obs.ScopeServer, cfg.Engine.Obs),
		down:     make([]atomic.Bool, n),
		maxBody:  maxBody,
		maxBatch: maxBatch,
		maxPair:  maxPair,
	}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, &shardSlot{id: i, eng: query.NewEngine(cfg.Engine)})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the tier's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the shard engines down (draining their store appends).
// In-flight HTTP requests racing Close get typed "closed" errors.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, sh := range s.shards {
		sh.eng.Close()
	}
}

// Shards reports the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// SetShardHealth marks shard i up or down operationally. A down shard
// is routed around exactly like a chaos-killed one; marking every
// shard down makes requests fail typed ("unavailable") instead of
// wrong.
func (s *Server) SetShardHealth(i int, healthy bool) {
	if i >= 0 && i < len(s.down) {
		s.down[i].Store(!healthy)
	}
}

// healthyShards counts shards not marked down.
func (s *Server) healthyShards() int {
	n := 0
	for i := range s.down {
		if !s.down[i].Load() {
			n++
		}
	}
	return n
}

// Stats aggregates the tier's counters: the sum of every shard's
// engine counters plus the tier-level server_requests /
// server_reroutes / tenant_rejects.
func (s *Server) Stats() map[string]int64 {
	out := s.ctr.Snapshot()
	for _, sh := range s.shards {
		for k, v := range sh.eng.Stats() {
			out[k] += v
		}
	}
	return out
}

// ShardStats returns a snapshot of one shard's private engine counters
// (hit/miss/shed split per shard); nil for an out-of-range shard.
func (s *Server) ShardStats(i int) map[string]int64 {
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i].eng.Stats()
}

// StatsLine renders the aggregate counters as a stable one-line
// summary (sorted names), mirroring Engine.StatsLine.
func (s *Server) StatsLine() string { return obs.StatsLine(s.Stats()) }

// route picks the shard for content key key: its home shard on the
// ring, or — when chaos killed it for this arrival or it is marked down
// — the next healthy shard clockwise. The reroute is the tier's
// degraded mode: colder cache, identical answers.
func (s *Server) route(key store.Key) (*shardSlot, error) {
	rsp := s.rec.Start(obs.StageServerRoute)
	defer rsp.End()
	killed := -1
	if s.inj.Fire(chaos.PointShard) == chaos.FaultError {
		killed = s.ring.lookup(key)
	}
	home := -1
	id, ok := s.ring.walk(key, func(sh int) bool {
		if home == -1 {
			home = sh
		}
		return sh != killed && !s.down[sh].Load()
	})
	if !ok {
		return nil, errNoHealthyShard
	}
	if id != home {
		s.ctr.Add(obs.CounterServerReroutes, 1)
	}
	return s.shards[id], nil
}

// routed pairs one decoded request with its slot in the response.
type routedReq struct {
	idx int
	req query.Request
}

// solveRouted routes each request to its shard, runs the per-shard
// sub-batches concurrently (shards are independent engines), and
// scatters answers back into results by original index. Each pair is
// hashed once: the keyed request carries its content key on into the
// shard's cache and store.
func (s *Server) solveRouted(ctx context.Context, reqs []routedReq, results []WireResult) {
	groups := make([][]routedReq, len(s.shards))
	for _, rr := range reqs {
		rr.req = rr.req.WithKey()
		slot, err := s.route(rr.req.Key())
		if err != nil {
			results[rr.idx] = WireResult{Shard: -1, Error: err.Error(), ErrorKind: errorKind(err)}
			continue
		}
		groups[slot.id] = append(groups[slot.id], rr)
	}
	var wg sync.WaitGroup
	for id, group := range groups {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(slot *shardSlot, group []routedReq) {
			defer wg.Done()
			sub := make([]query.Request, len(group))
			for j, rr := range group {
				sub[j] = rr.req
			}
			res := slot.eng.BatchSolve(ctx, sub)
			for j, rr := range group {
				results[rr.idx] = toWireResult(res[j], slot.id)
			}
		}(s.shards[id], group)
	}
	wg.Wait()
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start(obs.StageServerRequest)
	defer sp.End()
	var br BatchRequest
	if !s.readRequest(w, r, &br) {
		return
	}
	if !validTenant(br.Tenant) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: invalid tenant %q", br.Tenant))
		return
	}
	if len(br.Requests) > s.maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: batch of %d exceeds limit %d", len(br.Requests), s.maxBatch))
		return
	}
	n := len(br.Requests)
	s.ctr.Add(obs.CounterServerRequests, int64(n))
	results := make([]WireResult, n)

	// Tenant admission at arrival, mirroring the engine's MaxQueue
	// semantics: the head of the batch takes the free quota, the tail is
	// rejected typed. Slots are held until the batch answers.
	admitted := s.tenants.admit(br.Tenant, n)
	defer s.tenants.release(br.Tenant, admitted)
	if admitted < n {
		s.ctr.Add(obs.CounterTenantRejects, int64(n-admitted))
		for i := admitted; i < n; i++ {
			results[i] = WireResult{Shard: -1, Error: ErrTenantQuota.Error(), ErrorKind: errorKind(ErrTenantQuota)}
		}
	}

	routed := make([]routedReq, 0, admitted)
	for i := 0; i < admitted; i++ {
		req, err := toEngineRequest(br.Requests[i], s.maxPair)
		if err != nil {
			results[i] = WireResult{Shard: -1, Error: err.Error(), ErrorKind: errorKind(err)}
			continue
		}
		routed = append(routed, routedReq{idx: i, req: req})
	}
	s.solveRouted(r.Context(), routed, results)
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// handleStream serves POST /v1/stream: the pattern set — one pattern
// (pattern/pattern64) or several (patterns/patterns64) — opens one
// session group on the shard owning the set's content hash, and the
// whole op script runs against it in order. A single pattern is a group
// of one. A failed mutation reports in its slot and touched no spine, so
// later ops still answer against a consistent generation — the same
// semantics as the CLI -stream mode.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start(obs.StageServerRequest)
	defer sp.End()
	var sr StreamRequest
	if !s.readRequest(w, r, &sr) {
		return
	}
	if !validTenant(sr.Tenant) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: invalid tenant %q", sr.Tenant))
		return
	}
	if len(sr.Ops) > s.maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: script of %d ops exceeds limit %d", len(sr.Ops), s.maxBatch))
		return
	}
	patterns, err := s.streamPatterns(sr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := len(sr.Ops)
	s.ctr.Add(obs.CounterServerRequests, int64(n))

	// Stream scripts admit all-or-nothing: ops are stateful and ordered,
	// so shedding a prefix would corrupt the meaning of the suffix.
	if admitted := s.tenants.admit(sr.Tenant, n); admitted < n {
		s.tenants.release(sr.Tenant, admitted)
		s.ctr.Add(obs.CounterTenantRejects, int64(n))
		httpError(w, http.StatusTooManyRequests, ErrTenantQuota.Error())
		return
	}
	defer s.tenants.release(sr.Tenant, n)

	slot, err := s.route(store.KeyOf(groupRouteKey(patterns), nil))
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	sg, err := slot.eng.OpenStreamGroup(patterns)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	results := make([]StreamOpResult, n)
	ctx := r.Context()
	for i, op := range sr.Ops {
		results[i] = s.streamGroupOp(ctx, sg, op)
	}
	writeJSON(w, http.StatusOK, StreamResponse{
		Shard:    slot.id,
		Patterns: sg.Patterns(),
		Distinct: sg.DistinctPatterns(),
		Results:  results,
	})
}

// streamPatterns resolves and validates the pattern set of a stream
// request: one spelling only, at most maxBatch patterns, and at most
// maxPair total pattern bytes (group leaf work per append scales with
// the distinct pattern mass, so the wire bounds it like an input pair).
// A lone pattern/pattern64 is the one-element set.
func (s *Server) streamPatterns(sr StreamRequest) ([][]byte, error) {
	var patterns [][]byte
	switch {
	case len(sr.Patterns) == 0 && len(sr.Patterns64) == 0:
		p, err := pairBytes(sr.Pattern, sr.Pattern64, "pattern")
		if err != nil {
			return nil, err
		}
		patterns = [][]byte{p}
	case sr.Pattern != "" || sr.Pattern64 != "":
		return nil, errors.New("server: both pattern and patterns set")
	case len(sr.Patterns) > 0 && len(sr.Patterns64) > 0:
		return nil, errors.New("server: both patterns and patterns64 set")
	case len(sr.Patterns) > 0:
		patterns = make([][]byte, len(sr.Patterns))
		for i, p := range sr.Patterns {
			patterns[i] = []byte(p)
		}
	default:
		patterns = make([][]byte, len(sr.Patterns64))
		for i, p64 := range sr.Patterns64 {
			raw, err := base64.StdEncoding.DecodeString(p64)
			if err != nil {
				return nil, fmt.Errorf("server: bad patterns64[%d]: %w", i, err)
			}
			patterns[i] = raw
		}
	}
	if len(patterns) > s.maxBatch {
		return nil, fmt.Errorf("server: %d patterns exceeds limit %d", len(patterns), s.maxBatch)
	}
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	if total > s.maxPair {
		return nil, fmt.Errorf("server: patterns total %d bytes exceeds limit %d", total, s.maxPair)
	}
	return patterns, nil
}

// groupRouteKey frames the pattern set into one routing key: each
// pattern length-prefixed, so distinct sets never collide by
// concatenation. The whole group lives on this key's home shard.
func groupRouteKey(patterns [][]byte) []byte {
	key := make([]byte, 0, 4*len(patterns)+64)
	for _, p := range patterns {
		key = append(key, byte(len(p)), byte(len(p)>>8), byte(len(p)>>16), byte(len(p)>>24))
		key = append(key, p...)
	}
	return key
}

// streamGroupOp executes one op against the session group.
func (s *Server) streamGroupOp(ctx context.Context, sg *query.StreamGroup, op WireOp) StreamOpResult {
	fail := func(err error) StreamOpResult {
		return StreamOpResult{Error: err.Error(), ErrorKind: errorKind(err)}
	}
	switch op.Op {
	case "append":
		chunk, err := pairBytes(op.Chunk, op.Chunk64, "chunk")
		if err != nil {
			return fail(err)
		}
		if len(chunk) > s.maxPair {
			return fail(fmt.Errorf("server: chunk %d bytes exceeds limit %d: %w", len(chunk), s.maxPair, errPairTooLarge))
		}
		if err := sg.Append(ctx, chunk); err != nil {
			return fail(err)
		}
	case "slide":
		if err := sg.Slide(ctx, op.N); err != nil {
			return fail(err)
		}
	case "query":
		if op.Pat < 0 || op.Pat >= sg.Patterns() {
			return fail(fmt.Errorf("server: pattern index %d out of range (%d patterns)", op.Pat, sg.Patterns()))
		}
		kind, err := query.ParseKind(op.Kind)
		if err != nil {
			return fail(err)
		}
		res := sg.Query(op.Pat, query.Request{Kind: kind, From: op.From, To: op.To, Width: op.Width})
		if res.Err != nil {
			return fail(res.Err)
		}
		return StreamOpResult{
			Pat:   op.Pat,
			Score: res.Score, From: res.From, Windows: res.Windows,
			Gen: sg.Generation(), Window: sg.Window(), Leaves: sg.Leaves(),
		}
	default:
		return fail(fmt.Errorf("server: unknown op %q (want append, slide or query)", op.Op))
	}
	return StreamOpResult{Gen: sg.Generation(), Window: sg.Window(), Leaves: sg.Leaves()}
}

// handleMetrics serves the Prometheus text exposition: the shared
// stage histograms and obs counters, the aggregate engine counters,
// and the per-shard counter split under semilocal_shard_counter.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "server: GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// WriteMetrics writes the full exposition to w (also used by the CLI's
// final-report mode and the tests).
func (s *Server) WriteMetrics(w io.Writer) {
	obs.WriteMetrics(w, s.rec.Snapshot(), s.Stats())
	fmt.Fprintf(w, "# HELP semilocal_shard_counter Per-shard engine counters.\n")
	fmt.Fprintf(w, "# TYPE semilocal_shard_counter gauge\n")
	for _, sh := range s.shards {
		snap := sh.eng.Stats()
		for _, name := range obs.SortedNames(snap) {
			fmt.Fprintf(w, "semilocal_shard_counter{shard=\"%d\",name=%q} %d\n", sh.id, name, snap[name])
		}
	}
	fmt.Fprintf(w, "# HELP semilocal_shard_healthy Shard health (1 = routable).\n")
	fmt.Fprintf(w, "# TYPE semilocal_shard_healthy gauge\n")
	for i := range s.down {
		up := 1
		if s.down[i].Load() {
			up = 0
		}
		fmt.Fprintf(w, "semilocal_shard_healthy{shard=\"%d\"} %d\n", i, up)
	}
}

// handleHealthz serves liveness: 200 with shard counts while any shard
// is routable, 503 when none is.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := s.healthyShards()
	code := http.StatusOK
	if healthy == 0 || s.closed.Load() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]int{"shards": len(s.shards), "healthy": healthy})
}

// readRequest decodes one JSON request body under the configured
// limits, writing the 4xx response itself on failure: 405 for
// non-POST, 413 for oversized bodies, 400 for malformed JSON.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "server: POST only")
		return false
	}
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, s.maxBody), v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("server: body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: bad request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
