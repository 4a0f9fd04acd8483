// Package server is the network-native sharded serving tier over the
// batch query engine: N independent query.Engine shards behind
// rendezvous placement, fronted by an HTTP/JSON API (batch solves and
// query families on /v1/batch, streaming op scripts on /v1/stream,
// Prometheus text on /metrics, liveness on /healthz).
//
// Sharding scales cache capacity in one process: every shard owns its
// own LRU session cache, worker pool, and counters, and a given ordered
// input pair always lands on the same shard (so the singleflight dedup
// and cache locality of internal/query keep working per shard). It adds
// no CPU, as the shards share the process's cores: the gain measured
// for more shards is that of the larger aggregate cache (EXPERIMENTS.md,
// "Sharded serving tier"). A pair is placed by a CRC-32C of its bytes
// (place), not by the SHA-256 content key: that key is the engine's
// kernel identity, computed on the shard only when a kernel is looked
// up, so a score the banded path answers never pays for it. Per-tenant
// quotas layer on top of the per-shard MaxQueue/Deadline/retry/shed
// machinery: the engine bound protects the process, the tenant bound
// protects tenants from each other.
//
// The tier degrades rather than fails: a shard killed by chaos
// (chaos.PointShard) or marked unhealthy is routed around to the
// healthy shard of next-highest rendezvous weight (place.go) — answers
// stay bit-identical (every shard solves the same kernels), only cache
// locality suffers. Requests fail typed (shed, quota, deadline,
// canceled, injected, unavailable) and only when there is genuinely no
// way to answer.
package server

import (
	"context"
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
)

// MaxShards bounds Config.Shards. Every shard is a whole engine with
// its own worker pool and cache, and route weighs every shard on every
// request, so one process has no business running more than this.
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
}

// Server is the sharded serving tier. Construct with New, expose
// Handler through an http.Server, Close when done (closes the shard
// engines; the caller owns listener and store lifecycles).
type Server struct {
	shards  []*query.Engine
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

// New builds the tier: the shard engines, the quota table and the HTTP
// mux.
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
		s.shards = append(s.shards, query.NewEngine(cfg.Engine))
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
	for _, eng := range s.shards {
		eng.Close()
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
	for _, eng := range s.shards {
		for k, v := range eng.Stats() {
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
	return s.shards[i].Stats()
}

// StatsLine renders the aggregate counters as a stable one-line
// summary (sorted names), mirroring Engine.StatsLine.
func (s *Server) StatsLine() string { return obs.StatsLine(s.Stats()) }

// route picks the shard for the ordered pair (a, b): the home of its
// placement, or — when chaos killed the home for this arrival or it is
// marked down — the healthy shard of next-highest weight. The reroute
// is the tier's degraded mode: colder cache, identical answers. The
// route span includes the placement hash.
func (s *Server) route(a, b []byte) (int, error) {
	rsp := s.rec.Start(obs.StageServerRoute)
	defer rsp.End()
	pos := place(a, b)
	killed := s.inj.Fire(chaos.PointShard) == chaos.FaultError
	home, id := pick(pos, s.down, -1)
	if killed && id == home {
		_, id = pick(pos, s.down, home)
	}
	if id < 0 {
		return -1, errNoHealthyShard
	}
	if id != home {
		s.ctr.Add(obs.CounterServerReroutes, 1)
	}
	return id, nil
}

// routed pairs one decoded request with its slot in the response.
type routedReq struct {
	idx int
	req query.Request
}

// solveRouted routes each request to its shard, runs the per-shard
// sub-batches concurrently (shards are independent engines), and
// scatters answers back into results by original index. Routing
// computes no content key: the shard's engine keys a request only when
// it looks up a kernel, so a banded answer is never SHA-256-hashed and
// a kernel request is hashed once, on the engine worker.
func (s *Server) solveRouted(ctx context.Context, reqs []routedReq, results []WireResult) {
	groups := make([][]routedReq, len(s.shards))
	for _, rr := range reqs {
		id, err := s.route(rr.req.A, rr.req.B)
		if err != nil {
			results[rr.idx] = WireResult{Shard: -1, Error: err.Error(), ErrorKind: errorKind(err)}
			continue
		}
		groups[id] = append(groups[id], rr)
	}
	var wg sync.WaitGroup
	for id, group := range groups {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(id int, group []routedReq) {
			defer wg.Done()
			sub := make([]query.Request, len(group))
			for j, rr := range group {
				sub[j] = rr.req
			}
			res := s.shards[id].BatchSolve(ctx, sub)
			for j, rr := range group {
				results[rr.idx] = toWireResult(res[j], id)
			}
		}(id, group)
	}
	wg.Wait()
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start(obs.StageServerRequest)
	defer sp.End()
	var bc batchCall
	if !s.readRequest(w, r, &bc) {
		return
	}
	if !validTenant(bc.tenant) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: invalid tenant %q", bc.tenant))
		return
	}
	if len(bc.reqs) > s.maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: batch of %d exceeds limit %d", len(bc.reqs), s.maxBatch))
		return
	}
	n := len(bc.reqs)
	s.ctr.Add(obs.CounterServerRequests, int64(n))
	results := make([]WireResult, n)

	// Tenant admission at arrival, mirroring the engine's MaxQueue
	// semantics: the head of the batch takes the free quota, the tail is
	// rejected typed. Slots are held until the batch answers.
	admitted := s.tenants.admit(bc.tenant, n)
	defer s.tenants.release(bc.tenant, admitted)
	if admitted < n {
		s.ctr.Add(obs.CounterTenantRejects, int64(n-admitted))
		for i := admitted; i < n; i++ {
			results[i] = WireResult{Shard: -1, Error: ErrTenantQuota.Error(), ErrorKind: errorKind(ErrTenantQuota)}
		}
	}

	routed := make([]routedReq, 0, admitted)
	for i := 0; i < admitted; i++ {
		req, err := toEngineRequest(bc.reqs[i], s.maxPair)
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
// session group on the shard owning the set's placement, and the
// whole op script runs against it in order. A single pattern is a group
// of one. A failed mutation reports in its slot and touched no spine, so
// later ops still answer against a consistent generation — the same
// semantics as the CLI -stream mode.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start(obs.StageServerRequest)
	defer sp.End()
	var sc streamCall
	if !s.readRequest(w, r, &sc) {
		return
	}
	if !validTenant(sc.tenant) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: invalid tenant %q", sc.tenant))
		return
	}
	if len(sc.ops) > s.maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: script of %d ops exceeds limit %d", len(sc.ops), s.maxBatch))
		return
	}
	patterns, err := s.streamPatterns(sc)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := len(sc.ops)
	s.ctr.Add(obs.CounterServerRequests, int64(n))

	// Stream scripts admit all-or-nothing: ops are stateful and ordered,
	// so shedding a prefix would corrupt the meaning of the suffix.
	if admitted := s.tenants.admit(sc.tenant, n); admitted < n {
		s.tenants.release(sc.tenant, admitted)
		s.ctr.Add(obs.CounterTenantRejects, int64(n))
		httpError(w, http.StatusTooManyRequests, ErrTenantQuota.Error())
		return
	}
	defer s.tenants.release(sc.tenant, n)

	id, err := s.route(groupRouteKey(patterns), nil)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	sg, err := s.shards[id].OpenStreamGroup(patterns)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	results := make([]StreamOpResult, n)
	ctx := r.Context()
	for i, op := range sc.ops {
		results[i] = s.streamGroupOp(ctx, sg, op)
	}
	writeJSON(w, http.StatusOK, StreamResponse{
		Shard:    id,
		Patterns: sg.Patterns(),
		Distinct: sg.DistinctPatterns(),
		Results:  results,
	})
}

// streamPatterns resolves and validates the pattern set of a stream
// request: one spelling only, at most maxBatch patterns, and at most
// maxPair total pattern bytes (group leaf work per append scales with
// the distinct pattern mass, so the wire bounds it like an input pair).
// A lone pattern/pattern64 is the one-element set. Text patterns come
// back as decoded (sub-slices of the body on the canonical path);
// base64 ones are decoded into a fresh buffer each.
func (s *Server) streamPatterns(sc streamCall) ([][]byte, error) {
	var patterns [][]byte
	switch {
	case len(sc.patterns) == 0 && len(sc.patterns64) == 0:
		p, err := pairBytes(sc.pattern, sc.pattern64, "pattern")
		if err != nil {
			return nil, err
		}
		patterns = [][]byte{p}
	case len(sc.pattern) > 0 || len(sc.pattern64) > 0:
		return nil, errors.New("server: both pattern and patterns set")
	case len(sc.patterns) > 0 && len(sc.patterns64) > 0:
		return nil, errors.New("server: both patterns and patterns64 set")
	case len(sc.patterns) > 0:
		patterns = sc.patterns
	default:
		patterns = make([][]byte, len(sc.patterns64))
		for i, p64 := range sc.patterns64 {
			raw, err := decode64(p64)
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
// concatenation. The whole group lives on the home shard of the key's
// placement, place(key, nil) — the same function that places pairs.
func groupRouteKey(patterns [][]byte) []byte {
	key := make([]byte, 0, 4*len(patterns)+64)
	for _, p := range patterns {
		key = append(key, byte(len(p)), byte(len(p)>>8), byte(len(p)>>16), byte(len(p)>>24))
		key = append(key, p...)
	}
	return key
}

// streamGroupOp executes one op against the session group.
func (s *Server) streamGroupOp(ctx context.Context, sg *query.StreamGroup, op callOp) StreamOpResult {
	fail := func(err error) StreamOpResult {
		return StreamOpResult{Error: err.Error(), ErrorKind: errorKind(err)}
	}
	switch op.op {
	case "append":
		chunk, err := pairBytes(op.chunk, op.chunk64, "chunk")
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
		if err := sg.Slide(ctx, op.n); err != nil {
			return fail(err)
		}
	case "query":
		if op.pat < 0 || op.pat >= sg.Patterns() {
			return fail(fmt.Errorf("server: pattern index %d out of range (%d patterns)", op.pat, sg.Patterns()))
		}
		kind, err := query.ParseKind(op.kind)
		if err != nil {
			return fail(err)
		}
		res := sg.Query(op.pat, query.Request{Kind: kind, From: op.from, To: op.to, Width: op.width})
		if res.Err != nil {
			return fail(res.Err)
		}
		return StreamOpResult{
			Pat:   op.pat,
			Score: res.Score, From: res.From, Windows: res.Windows,
			Gen: sg.Generation(), Window: sg.Window(), Leaves: sg.Leaves(),
		}
	default:
		return fail(fmt.Errorf("server: unknown op %q (want append, slide or query)", op.op))
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
	for i, eng := range s.shards {
		snap := eng.Stats()
		for _, name := range obs.SortedNames(snap) {
			fmt.Fprintf(w, "semilocal_shard_counter{shard=\"%d\",name=%q} %d\n", i, name, snap[name])
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

// readRequest reads one request body whole under the configured limits
// and decodes it (decodeRequest), writing the 4xx response itself on
// failure: 405 for non-POST, 413 for oversized bodies, 400 for
// malformed JSON.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "server: POST only")
		return false
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength, s.maxBody)
	if err == nil {
		err = decodeRequest(body, v)
	}
	if err != nil {
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
