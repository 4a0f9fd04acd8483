// Package obs is the instrumentation subsystem of this repository: stage
// timers on the monotonic clock, lock-free sharded counters, and
// fixed-bucket latency histograms with mergeable snapshots, threaded
// through the kernel solvers and the query engine as a *Recorder.
//
// The cardinal design rule is that a nil *Recorder is the disabled
// recorder: every method on a nil receiver is a no-op that performs
// zero allocations, takes no clock reading, and touches no shared
// memory, so instrumented hot paths cost nothing when observability is
// off. Spans are plain values (never heap-allocated), stages and
// counters are small enums resolved to fixed arrays (never map or
// string lookups on the hot path), and histograms are arrays of atomic
// bucket counters.
//
// When enabled, a Recorder is safe for concurrent use from any number
// of goroutines, and Snapshot can be taken at any time while writers
// are active. Snapshots are not a consistent cut across all atomics —
// each individual cell is read atomically, but a snapshot taken under
// concurrent writers may mix before/after values of different cells.
// That is the standard monitoring contract; quiescent snapshots are
// exact (see the concurrency tests).
package obs

import (
	"sync/atomic"
	"time"
)

// Stage names one timed region of the solver or serving pipeline.
type Stage uint8

const (
	// StageSolve is one whole kernel solve (core.SolveWith end to end).
	StageSolve Stage = iota
	// StageCombRows is a row-major iterative combing pass.
	StageCombRows
	// StageCombDiags is an anti-diagonal combing pass: all three
	// phases (growing triangle, full band, shrinking triangle).
	StageCombDiags
	// StageCombFinish is the final track→kernel relabeling of a combing
	// pass (finishKernel).
	StageCombFinish
	// StageCompose is one steady-ant braid multiplication (only
	// multiplications of order ≥ ComposeSpanMinOrder are timed; all are
	// counted).
	StageCompose
	// StageGridComb is phase 1 of grid reduction: combing all tiles.
	// It overlaps the comb stages recorded by the tiles themselves, so
	// it is excluded from breakdown coverage accounting.
	StageGridComb
	// StageGridReduce is phase 2 of grid reduction: the pairwise
	// tile-kernel reduction. Overlaps StageCompose; excluded from
	// coverage accounting.
	StageGridReduce
	// StageBitBlocks is the block loop of the bit-parallel LCS.
	StageBitBlocks
	// StagePrepare has no producer: the engine cache holds solved and
	// store-loaded kernels as they are, with no wrap to time, and a
	// kernel builds its dominance tree on demand, inside the StageQuery
	// span of the query that crosses its scan budget. Like
	// StageStreamAppend, it is kept only because the benchmark harness
	// (bench/run.go) names it.
	StagePrepare
	// StageCacheHit is an engine acquire served by a resident kernel.
	StageCacheHit
	// StageCacheMiss is an engine acquire that had to wait for a solve
	// (both the solving request and requests deduplicated onto it).
	StageCacheMiss
	// StageQueueWait is the time a batch request spent waiting for a
	// worker after submission.
	StageQueueWait
	// StageQuery is the query evaluation on a kernel, including the
	// one-off dominance-tree build when this query crosses its
	// kernel's scan budget (core.Kernel.H).
	StageQuery
	// StageRequest is one engine request end to end (wait + acquire +
	// query).
	StageRequest
	// StageBackoff is one retry backoff wait between solve attempts of
	// a request whose previous attempt failed transiently.
	StageBackoff
	// StageStreamAppend has no producer: every stream mutation, a
	// single-pattern one included, records StageStreamGroupAppend. It
	// is kept only because the benchmark harness (bench/run.go) names
	// it.
	StageStreamAppend
	// StageStreamCompose is one steady-ant composition inside a
	// stream group's spine (only compositions of order ≥
	// ComposeSpanMinOrder are timed; all are counted).
	StageStreamCompose
	// StageBandProbe is the engine dispatcher's divergence probe: the
	// prefix/suffix trim plus sampled-anchor scan that decides whether
	// a distance-only request may take the banded fast path.
	StageBandProbe
	// StageBandedBFS is one banded diagonal-BFS solve (the
	// Landau–Vishkin fast path for near-identical inputs), whether it
	// completed within its band budget or exited early.
	StageBandedBFS
	// StageStoreRead is one persistent-store lookup on a cache miss:
	// the index probe, the disk read, the checksum verification and the
	// kernel decode, hit or miss.
	StageStoreRead
	// StageStoreAppend is one asynchronous persistent-store append: the
	// kernel encode, the checksummed record write and the fsync. It
	// runs on the store publisher goroutine, never on a request path.
	StageStoreAppend
	// StageStoreCompact is one store compaction pass: rewriting live
	// records into a fresh log once dead bytes crossed the threshold.
	StageStoreCompact
	// StageServerRequest is one HTTP serving-tier request end to end:
	// decode, tenant admission, shard routing, the per-shard engine
	// batches, and response encoding.
	StageServerRequest
	// StageServerRoute is the shard-routing step of one serving-tier
	// request: the pair's CRC-32C placement and the pass over the shard
	// weights that picks its home or, under a chaos kill, the shard of
	// next-highest weight.
	StageServerRoute
	// StageStreamGroupAppend is one multi-pattern group mutation end to
	// end: the shared text-side pass (chunk scan, canonical relabeling
	// keys) plus the per-pattern fan-out. It nests
	// StageStreamGroupFanout, StageSolve and StageStreamCompose spans.
	StageStreamGroupAppend
	// StageStreamGroupFanout is the fan-out phase of a group mutation:
	// solving the deduplicated leaf kernels and driving every pattern's
	// spine, possibly across a worker pool.
	StageStreamGroupFanout
	// NumStages bounds the Stage enum.
	NumStages
)

var stageNames = [NumStages]string{
	"solve", "comb_rows", "comb_diags", "comb_finish", "compose",
	"grid_comb", "grid_reduce", "bit_blocks", "prepare",
	"cache_hit", "cache_miss", "queue_wait", "query", "request",
	"backoff", "stream_append", "stream_compose",
	"band_probe", "banded_bfs",
	"store_read", "store_append", "store_compact",
	"server_request", "server_route",
	"stream_group_append", "stream_group_fanout",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// solveChildren are the leaf stages whose durations partition a solve:
// they nest directly inside StageSolve without overlapping each other,
// so their sum is comparable against the solve wall time (the grid
// phase stages overlap them and are excluded).
var solveChildren = []Stage{StageCombRows, StageCombDiags, StageCombFinish, StageCompose, StageBitBlocks}

// CounterID names one event counter. Each counter is declared once:
// its ID, its exported name and its Scope live in counterDefs.
type CounterID uint8

const (
	// CounterCombCells counts LCS grid cells processed by combing.
	CounterCombCells CounterID = iota
	// CounterCombDiags counts anti-diagonals processed.
	CounterCombDiags
	// CounterComposes counts steady-ant multiplications.
	CounterComposes
	// CounterComposeOrder sums the permutation order over all
	// multiplications.
	CounterComposeOrder
	// CounterArenaBytes sums the arena bytes allocated by observed
	// multiplications (the 8N-word flip-flop blocks plus mapping and
	// split scratch).
	CounterArenaBytes
	// CounterGridTiles counts tiles combed by grid reduction.
	CounterGridTiles
	// CounterBitBlocks counts word blocks processed by the bit-parallel
	// LCS.
	CounterBitBlocks
	// CounterOpenSpans is a gauge: spans started minus spans ended. It
	// must read zero whenever the recorded system is quiescent; the
	// engine shutdown tests assert this.
	CounterOpenSpans
	// CounterRetries counts solve attempts re-issued by the engine's
	// retry policy after a transient failure.
	CounterRetries
	// CounterSheds counts requests rejected by admission control (the
	// bounded queue was full; the request got a typed shed error).
	CounterSheds
	// CounterDegradations counts requests that fell back from a
	// parallel solve configuration to the sequential variant because a
	// deadline was near or a worker stall was injected.
	CounterDegradations
	// CounterFaultsInjected counts faults fired by a chaos injector.
	CounterFaultsInjected
	// CounterStreamComposes counts steady-ant compositions performed by
	// stream spines — spine merges, publish folds, and slide
	// rebuilds. The differential suite bounds this against the
	// O(log(leaves)) amortized budget.
	CounterStreamComposes
	// CounterBandedRequests counts engine requests answered by the
	// banded diagonal-BFS fast path instead of kernel construction.
	CounterBandedRequests
	// CounterBandFallbacks counts banded-eligible requests that fell
	// back to the kernel pipeline — the probe voted no, the band blew
	// past its budget, or a chaos fault forced the fallback. For any
	// banded-eligible load, requests_banded + band_fallbacks accounts
	// for every eligible request (the soak test pins this).
	CounterBandFallbacks
	// CounterStoreHits counts cache misses answered by the persistent
	// kernel store instead of a solve.
	CounterStoreHits
	// CounterStoreMisses counts cache misses the store could not answer
	// (absent, corrupt, or faulted by chaos) that went on to solve.
	CounterStoreMisses
	// CounterStoreAppends counts kernels durably appended to the
	// persistent store by the background publisher.
	CounterStoreAppends
	// CounterStoreCorrupt counts store records that failed their
	// checksum (at open-scan or read time) — detected, skipped, and
	// never served.
	CounterStoreCorrupt
	// CounterServerRequests counts requests accepted by the sharded
	// serving tier's network API (batch requests and stream ops alike).
	CounterServerRequests
	// CounterServerReroutes counts requests routed away from their home
	// shard because chaos killed it — the degraded-not-failed path of
	// the tier.
	CounterServerReroutes
	// CounterTenantRejects counts requests rejected by per-tenant quota
	// admission before touching any shard.
	CounterTenantRejects
	// CounterStreamGroupAppends counts group-wide mutations (appends and
	// slides) applied to streaming session groups: one per published
	// group generation. Empty appends, zero slides and rejected or
	// failed mutations are not counted.
	CounterStreamGroupAppends
	// CounterStreamGroupPatterns sums the patterns fanned out to per
	// group mutation — divided by CounterStreamGroupAppends it gives the
	// mean group width actually served.
	CounterStreamGroupPatterns
	// CounterStreamGroupShares counts per-pattern leaf solves avoided by
	// the group's shared text-side pass: patterns whose chunk kernel was
	// proven identical to another pattern's (up to joint alphabet
	// relabeling) and reused instead of recombed.
	CounterStreamGroupShares
	// CounterRequests counts batch requests accepted by an engine.
	CounterRequests
	// CounterRequestsInflight is a gauge: engine requests currently
	// being processed.
	CounterRequestsInflight
	// CounterCacheHits counts acquires served by a resident kernel.
	CounterCacheHits
	// CounterCacheMisses counts acquires that started a solve (or a
	// store read).
	CounterCacheMisses
	// CounterCacheDeduped counts acquires that joined another
	// request's in-flight solve.
	CounterCacheDeduped
	// CounterCacheEvictions counts resident kernels dropped by LRU
	// pressure or an eviction storm.
	CounterCacheEvictions
	// CounterCacheBytes is a gauge: the sum of the resident kernels'
	// MemoryBytes reservations (permutation, column→row view and
	// dominance tree, whether or not the latter two are built yet).
	CounterCacheBytes
	// CounterStreamsOpened counts stream groups opened on an engine (a
	// single-pattern stream is a group of one).
	CounterStreamsOpened
	// CounterStreamAppendOps counts engine stream Append calls.
	CounterStreamAppendOps
	// CounterStreamSlideOps counts engine stream Slide calls.
	CounterStreamSlideOps
	// NumCounters bounds the CounterID enum.
	NumCounters
)

// Scope says which counter set owns a counter.
type Scope uint8

const (
	// ScopeRecorder counters are solver work counters: they live only
	// in a Recorder and are off when it is nil.
	ScopeRecorder Scope = iota
	// ScopeEngine counters live in every query.Engine's CounterSet and
	// are always on, whatever the engine's options.
	ScopeEngine
	// ScopeServer counters live in the server.Server's CounterSet and
	// are always on.
	ScopeServer
)

// counterDefs is the one declaration of every counter's exported name
// and owning scope.
var counterDefs = [NumCounters]struct {
	name  string
	scope Scope
}{
	CounterCombCells:           {"comb_cells", ScopeRecorder},
	CounterCombDiags:           {"comb_diags", ScopeRecorder},
	CounterComposes:            {"composes", ScopeRecorder},
	CounterComposeOrder:        {"compose_order", ScopeRecorder},
	CounterArenaBytes:          {"arena_bytes", ScopeRecorder},
	CounterGridTiles:           {"grid_tiles", ScopeRecorder},
	CounterBitBlocks:           {"bit_blocks", ScopeRecorder},
	CounterOpenSpans:           {"open_spans", ScopeRecorder},
	CounterRetries:             {"requests_retried", ScopeEngine},
	CounterSheds:               {"requests_shed", ScopeEngine},
	CounterDegradations:        {"requests_degraded", ScopeEngine},
	CounterFaultsInjected:      {"faults_injected", ScopeRecorder},
	CounterStreamComposes:      {"compositions_total", ScopeRecorder},
	CounterBandedRequests:      {"requests_banded", ScopeEngine},
	CounterBandFallbacks:       {"band_fallbacks", ScopeEngine},
	CounterStoreHits:           {"store_hits", ScopeEngine},
	CounterStoreMisses:         {"store_misses", ScopeEngine},
	CounterStoreAppends:        {"store_appends", ScopeEngine},
	CounterStoreCorrupt:        {"store_corrupt_records", ScopeEngine},
	CounterServerRequests:      {"server_requests", ScopeServer},
	CounterServerReroutes:      {"server_reroutes", ScopeServer},
	CounterTenantRejects:       {"tenant_rejects", ScopeServer},
	CounterStreamGroupAppends:  {"stream_group_appends", ScopeRecorder},
	CounterStreamGroupPatterns: {"stream_group_patterns", ScopeRecorder},
	CounterStreamGroupShares:   {"stream_group_shares", ScopeRecorder},
	CounterRequests:            {"requests", ScopeEngine},
	CounterRequestsInflight:    {"requests_inflight", ScopeEngine},
	CounterCacheHits:           {"cache_hits", ScopeEngine},
	CounterCacheMisses:         {"cache_misses", ScopeEngine},
	CounterCacheDeduped:        {"cache_deduped", ScopeEngine},
	CounterCacheEvictions:      {"cache_evictions", ScopeEngine},
	CounterCacheBytes:          {"cache_bytes", ScopeEngine},
	CounterStreamsOpened:       {"streams_opened", ScopeEngine},
	CounterStreamAppendOps:     {"stream_appends", ScopeEngine},
	CounterStreamSlideOps:      {"stream_slides", ScopeEngine},
}

func (c CounterID) String() string {
	if c < NumCounters {
		return counterDefs[c].name
	}
	return "unknown"
}

// Scope returns the counter set that owns c.
func (c CounterID) Scope() Scope { return counterDefs[c].scope }

// ComposeSpanMinOrder is the smallest multiplication order for which
// StageCompose records a timed span. Smaller products (the O(m+n) tiny
// compositions of the pure recursive algorithm) are only counted:
// taking two clock readings around a table lookup would dominate the
// thing being measured.
const ComposeSpanMinOrder = 64

// Recorder accumulates stage timings and counters. The zero value is
// NOT the disabled recorder — a nil *Recorder is; construct enabled
// recorders with New. All methods are nil-safe and safe for concurrent
// use.
type Recorder struct {
	hist         [NumStages]Histogram
	ctr          [NumCounters]ShardedCounter
	composeDepth MaxGauge
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Span is one in-progress stage timing, produced by Start and finished
// by End. It is a value type: starting and ending a span allocates
// nothing, whether or not the recorder is enabled.
type Span struct {
	r     *Recorder
	stage Stage
	start time.Time
}

// Start begins timing one occurrence of a stage. On a nil recorder it
// returns an inert span and does not read the clock.
func (r *Recorder) Start(stage Stage) Span {
	if r == nil {
		return Span{}
	}
	r.ctr[CounterOpenSpans].Add(1)
	return Span{r: r, stage: stage, start: time.Now()}
}

// End finishes the span, recording its monotonic-clock duration into
// the stage's histogram. End on an inert span is a no-op; End must be
// called exactly once per started span (CounterOpenSpans audits this).
func (sp Span) End() {
	if sp.r == nil {
		return
	}
	sp.r.hist[sp.stage].Observe(time.Since(sp.start))
	sp.r.ctr[CounterOpenSpans].Add(-1)
}

// Observe records one pre-measured duration into a stage's histogram
// (used where the start time lives outside the instrumented frame, e.g.
// queue wait).
func (r *Recorder) Observe(stage Stage, d time.Duration) {
	if r == nil {
		return
	}
	r.hist[stage].Observe(d)
}

// Add increments a counter by d.
func (r *Recorder) Add(c CounterID, d int64) {
	if r == nil {
		return
	}
	r.ctr[c].Add(d)
}

// RecordComposeDepth folds one observed steady-ant recursion depth into
// the running maximum.
func (r *Recorder) RecordComposeDepth(depth int64) {
	if r == nil {
		return
	}
	r.composeDepth.Record(depth)
}

// OpenSpans returns the number of currently open spans (started, not
// yet ended). Zero whenever the recorded system is quiescent.
func (r *Recorder) OpenSpans() int64 {
	if r == nil {
		return 0
	}
	return r.ctr[CounterOpenSpans].Load()
}

// Counter returns the current value of one counter.
func (r *Recorder) Counter(c CounterID) int64 {
	if r == nil {
		return 0
	}
	return r.ctr[c].Load()
}

// CounterSet is the always-on counter set of one engine or server: one
// atomic per counter, exported whether or not a Recorder is attached.
// Add forwards every event to the attached Recorder too, so a counter
// reads the same in the set and in the recorder (summed over every set
// that shares it). A CounterSet is safe for concurrent use.
type CounterSet struct {
	scope Scope
	rec   *Recorder
	v     [NumCounters]atomic.Int64
}

// NewCounterSet returns the zeroed set of scope's counters, forwarding
// to rec (nil forwards nowhere).
func NewCounterSet(scope Scope, rec *Recorder) *CounterSet {
	return &CounterSet{scope: scope, rec: rec}
}

// Add adds d to counter c (negative deltas move gauges down) and to
// the attached recorder.
func (s *CounterSet) Add(c CounterID, d int64) {
	s.v[c].Add(d)
	s.rec.Add(c, d)
}

// Snapshot returns the current value of every counter of the set's
// scope by name: always the same names, zero or not.
func (s *CounterSet) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for c := CounterID(0); c < NumCounters; c++ {
		if c.Scope() == s.scope {
			out[c.String()] = s.v[c].Load()
		}
	}
	return out
}

// Snapshot returns a point-in-time copy of everything the recorder has
// accumulated. On a nil recorder it returns the zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for st := Stage(0); st < NumStages; st++ {
		s.Stages[st] = r.hist[st].Snapshot()
	}
	for c := CounterID(0); c < NumCounters; c++ {
		s.Counters[c] = r.ctr[c].Load()
	}
	s.ComposeDepthMax = r.composeDepth.Load()
	return s
}
