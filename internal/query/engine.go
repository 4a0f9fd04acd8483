package query

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/store"
)

// RetryPolicy configures automatic re-solving of transient failures
// (see IsTransient). The zero policy disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of solve attempts per request
	// (first try included); values ≤ 1 disable retries.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; it doubles per
	// attempt (exponential backoff). Zero retries immediately.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling; 0 means uncapped.
	MaxBackoff time.Duration
}

// enabled reports whether the policy retries anything.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// backoffAfter returns the wait before attempt number `attempt`
// (2-based: the wait before the first retry is backoffAfter(2)).
func (p RetryPolicy) backoffAfter(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 2; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// Options configures an Engine. The zero value is usable: sequential
// batches, the default solve configuration, and a small cache.
type Options struct {
	// Config chooses how a cache miss is solved; the zero value is
	// sequential row-major combing. It is not part of the cache key:
	// every configuration produces the same kernel.
	Config core.Config
	// Workers is the fan-out width of BatchSolve (values ≤ 1 process
	// batches sequentially). This is independent of Config.Workers,
	// which parallelizes the inside of a single solve.
	Workers int
	// MaxKernels is the number of kernels the engine's LRU cache keeps
	// resident; a solve past it evicts the least recently used kernel.
	// Values ≤ 0 mean DefaultMaxKernels.
	MaxKernels int
	// Obs receives stage timings (queue wait, cache hit/miss latency,
	// per-request end-to-end, solver stages) and work counters. nil (the
	// default) disables tracing entirely: the hot paths run the
	// uninstrumented code with zero extra allocations.
	Obs *obs.Recorder

	// MaxQueue bounds the number of batch requests admitted and not yet
	// answered, across all concurrent BatchSolve calls. Requests
	// arriving past the bound are shed immediately with ErrShed (the
	// 429 of this engine) instead of queuing without bound. 0 disables
	// admission control.
	MaxQueue int
	// Retry re-issues solves that failed transiently (IsTransient),
	// with exponential backoff between attempts. The zero policy
	// disables retries; errors surface on the first failure.
	Retry RetryPolicy
	// Deadline is the default per-request timeout applied when a
	// Request carries no Timeout of its own; 0 applies none.
	Deadline time.Duration
	// DegradeBelow turns on graceful degradation: when a request's
	// remaining deadline is below this (or a chaos worker stall hit the
	// request), an uncached solve runs the sequential variant of its
	// configuration instead of the parallel one — predictable latency
	// beats peak throughput near a deadline. 0 disables the fallback
	// (stall-triggered degradation stays on whenever chaos is active).
	DegradeBelow time.Duration
	// Chaos injects deterministic faults into the serving path (see
	// internal/chaos). nil — the production configuration — disables
	// injection entirely at zero cost.
	Chaos *chaos.Injector
	// Store, when non-nil, backs the cache with the persistent kernel
	// store as a write-through second tier: cache misses consult the
	// store before solving, and solved kernels are appended
	// asynchronously off the request path. The engine does not own the
	// store — open it with store.Open, close the engine first (Close
	// drains pending appends), then close the store. nil (the default)
	// keeps the serving path purely in-memory at zero extra cost.
	Store *store.Store
	// Banded turns on the banded diagonal-BFS fast path for distance-only
	// (Score) requests: a cheap divergence probe routes near-identical
	// pairs around kernel construction entirely, falling back to the full
	// pipeline when the band blows up or the request needs semi-local
	// structure. The zero value keeps every request on the kernel path.
	Banded BandedConfig
}

// DefaultMaxKernels is the cache capacity of a zero Options.
const DefaultMaxKernels = 128

// Engine amortizes kernel solves across queries: an LRU cache of
// kernels (their query index built on demand) with singleflight
// deduplication, and a batch front end that fans independent requests
// across a worker pool. All methods are safe for concurrent use; Close
// releases the pool.
type Engine struct {
	cache  *cache
	tier   *storeTier // nil without a persistent store
	pool   *parallel.Pool
	cfg    core.Config
	ctr    *obs.CounterSet
	rec    *obs.Recorder
	inj    *chaos.Injector
	closed atomic.Bool

	// Hardening knobs (see Options).
	maxQueue     int
	retry        RetryPolicy
	deadline     time.Duration
	degradeBelow time.Duration
	pending      atomic.Int64 // admitted, not yet answered (≤ maxQueue)

	banded BandedConfig
}

// NewEngine builds an engine; the caller owns it and must Close it.
func NewEngine(opts Options) *Engine {
	ctr := obs.NewCounterSet(obs.ScopeEngine, opts.Obs)
	maxKernels := opts.MaxKernels
	if maxKernels <= 0 {
		maxKernels = DefaultMaxKernels
	}
	tier := newStoreTier(opts.Store, ctr, opts.Obs, opts.Chaos)
	return &Engine{
		cache:        newCache(maxKernels, ctr, opts.Obs, opts.Chaos, tier),
		tier:         tier,
		pool:         parallel.NewPool(opts.Workers),
		cfg:          opts.Config,
		ctr:          ctr,
		rec:          opts.Obs,
		inj:          opts.Chaos,
		maxQueue:     opts.MaxQueue,
		retry:        opts.Retry,
		deadline:     opts.Deadline,
		degradeBelow: opts.DegradeBelow,
		banded:       opts.Banded,
	}
}

// Close stops the engine's workers and drains the persistent-store
// append queue (every kernel published before Close is durable when it
// returns). The engine must not be used afterwards; BatchSolve and
// Acquire on a closed engine return an error.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.pool.Close()
	e.tier.close()
}

// Stats returns a snapshot of the engine's counters by name: every
// obs.ScopeEngine counter (requests, requests_inflight, cache_*,
// requests_shed/retried/degraded, requests_banded, band_fallbacks,
// store_*, streams_opened, stream_appends, stream_slides), always the
// same set whatever the options.
func (e *Engine) Stats() map[string]int64 { return e.ctr.Snapshot() }

// StatsLine renders the counters as a stable one-line summary.
func (e *Engine) StatsLine() string { return obs.StatsLine(e.Stats()) }

// CachedKernels reports the number of resident cached kernels.
func (e *Engine) CachedKernels() int {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return e.cache.lru.Len()
}

// Acquire returns the cached kernel for (a, b), solving it with the
// engine's configuration only if no resident or in-flight kernel
// exists. The kernel stays valid after eviction (it is immutable);
// eviction only stops future Acquires from reusing it. A solve that
// outlives ctx works on its own copy of a and b.
func (e *Engine) Acquire(ctx context.Context, a, b []byte) (*Session, error) {
	return e.acquire(ctx, Request{A: a, B: b}.WithKey(), e.cfg)
}

// acquire is Acquire for a keyed request; cfg only decides how a miss
// is solved.
func (e *Engine) acquire(ctx context.Context, req Request, cfg core.Config) (*core.Kernel, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	return e.cache.acquire(ctx, req.key, req.A, req.B, cfg)
}

// Request is one unit of work for BatchSolve: an input pair, the query
// to answer on its kernel, and an optional per-request deadline. The
// engine never writes into a caller's Request.
type Request struct {
	A, B []byte
	// Kind selects the query family; see the Kind constants.
	Kind Kind
	// From and To are the range or index arguments of the four quadrant
	// queries (unused by Score, Windows and BestWindow).
	From, To int
	// Width is the window width of Windows and BestWindow.
	Width int
	// Timeout bounds this request alone (0 = no extra bound); it is
	// applied on top of the batch context.
	Timeout time.Duration

	// key is the content key of (A, B), valid once keyed is set; only
	// WithKey sets it.
	key   store.Key
	keyed bool
}

// WithKey returns a copy of r carrying the content key of its pair,
// store.KeyOf(A, B): the one kernel identity the engine caches,
// deduplicates and persists under. The engine keys a request only when
// it looks up a kernel, so a score the banded path answers is never
// hashed; keying a keyed request costs nothing. Key a request only
// once A and B are final.
func (r Request) WithKey() Request {
	if !r.keyed {
		r.key, r.keyed = store.KeyOf(r.A, r.B), true
	}
	return r
}

// Result is the answer to one Request.
type Result struct {
	// Score is the scalar answer of every kind except Windows; for
	// BestWindow it is the best window's score.
	Score int
	// From is the best window's left edge (BestWindow only).
	From int
	// Windows is the full sweep (Windows only).
	Windows []int
	// Err reports validation failures, solve errors, or the context /
	// timeout error that cancelled the request.
	Err error
}

// BatchSolve answers every request, fanning the batch across the
// engine's workers. Duplicate pairs inside one batch (and across
// concurrent batches) are solved once via the cache's singleflight;
// results come back in request order. ctx cancellation or a request
// Timeout abandons waiting requests with their context error — an
// already-running solve still completes and is cached.
//
// With Options.MaxQueue set, admission happens at arrival: the batch
// reserves queue slots for as many of its requests as fit, and the
// tail of the batch past the bound is answered immediately with
// ErrShed. Slots free as requests finish, so concurrent batches drain
// into capacity instead of piling up behind a wedged pool.
func (e *Engine) BatchSolve(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if e.closed.Load() {
		for i := range out {
			out[i].Err = ErrEngineClosed
		}
		return out
	}
	e.ctr.Add(obs.CounterRequests, int64(len(reqs)))
	admitted := e.admit(len(reqs))
	if admitted < len(reqs) {
		e.ctr.Add(obs.CounterSheds, int64(len(reqs)-admitted))
		for i := admitted; i < len(reqs); i++ {
			out[i].Err = ErrShed
		}
	}
	if !e.rec.Enabled() {
		e.pool.Each(admitted, func(i int) {
			e.ctr.Add(obs.CounterRequestsInflight, 1)
			out[i] = e.one(ctx, reqs[i], e.workerFault())
			e.ctr.Add(obs.CounterRequestsInflight, -1)
			e.release()
		})
		return out
	}
	// Traced path: queue_wait is the delay between batch submission and a
	// worker picking the request up; request is the end-to-end span from
	// submission to answer (so request − queue_wait is pure processing).
	// Requests run under pprof labels, so CPU profiles of a serving
	// engine attribute samples to the batch-solve operation and query
	// kind.
	submit := time.Now()
	e.pool.Each(admitted, func(i int) {
		e.ctr.Add(obs.CounterRequestsInflight, 1)
		e.rec.Observe(obs.StageQueueWait, time.Since(submit))
		stalled := e.workerFault()
		pprof.Do(ctx, pprof.Labels("op", "batch_solve", "kind", reqs[i].Kind.String()), func(ctx context.Context) {
			out[i] = e.one(ctx, reqs[i], stalled)
		})
		e.rec.Observe(obs.StageRequest, time.Since(submit))
		e.ctr.Add(obs.CounterRequestsInflight, -1)
		e.release()
	})
	return out
}

// admit reserves queue slots for up to n requests and returns how many
// were admitted; the remainder must be shed. Without a queue bound all
// n are admitted through a single branch — no atomics touched.
func (e *Engine) admit(n int) int {
	if e.maxQueue <= 0 {
		return n
	}
	for {
		cur := e.pending.Load()
		free := int64(e.maxQueue) - cur
		if free <= 0 {
			return 0
		}
		take := int64(n)
		if take > free {
			take = free
		}
		if e.pending.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// release frees one admitted request's queue slot.
func (e *Engine) release() {
	if e.maxQueue > 0 {
		e.pending.Add(-1)
	}
}

// workerFault consults the chaos worker point as a batch worker picks a
// request up. An injected stall parks the worker for the configured
// latency and reports true, which forces the request onto the degraded
// (sequential) path — a stalled pool must not also be asked for peak
// parallel throughput.
func (e *Engine) workerFault() bool {
	return e.inj.Fire(chaos.PointWorker) == chaos.FaultStall
}

// one answers a single request. stalled reports that a chaos worker
// stall already delayed this request.
func (e *Engine) one(ctx context.Context, req Request, stalled bool) Result {
	timeout := req.Timeout
	if timeout == 0 {
		timeout = e.deadline
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// Range check before the solve: an invalid request never pays for
	// one. Answer checks again against the kernel.
	if err := req.Validate(len(req.A), len(req.B)); err != nil {
		return Result{Err: err}
	}
	// Shape dispatch: distance-only requests on near-identical inputs
	// skip kernel construction entirely via the banded diagonal BFS. A
	// probe veto, band blow-up, or injected fault falls through to the
	// kernel pipeline below with the answer unchanged.
	if e.banded.Enabled && req.Kind == Score {
		if res, ok := e.tryBanded(ctx, req); ok {
			return res
		}
	}
	// Graceful degradation: a near deadline or an injected pool stall
	// swaps an uncached parallel solve for the sequential variant —
	// the answer is bit-identical (every algorithm produces the same
	// kernel), only the solve strategy changes.
	cfg := e.cfg
	if stalled || e.deadlineNear(ctx) {
		if seq, changed := degradeConfig(cfg); changed {
			cfg = seq
			e.ctr.Add(obs.CounterDegradations, 1)
		}
	}
	k, err := e.acquireRetry(ctx, req.WithKey(), cfg)
	if err != nil {
		return Result{Err: err}
	}
	if e.inj.Fire(chaos.PointQuery) == chaos.FaultCancel {
		return Result{Err: context.Canceled}
	}
	// Deadline enforcement: a request whose deadline expired while it
	// waited for the solve reports the typed context error instead of
	// answering late.
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	// The query span times only the answer — kernel lookups, window
	// sweeps, and the on-demand tree build of the query that crosses
	// its kernel's scan budget — apart from acquisition and solve time.
	qsp := e.rec.Start(obs.StageQuery)
	res := Answer(k, req)
	qsp.End()
	return res
}

// deadlineNear reports whether ctx's deadline is within the
// degradation threshold. With the fallback disabled it costs one
// branch and never reads the clock.
func (e *Engine) deadlineNear(ctx context.Context) bool {
	if e.degradeBelow <= 0 {
		return false
	}
	dl, ok := ctx.Deadline()
	return ok && time.Until(dl) < e.degradeBelow
}

// degradeConfig maps a solve configuration to its sequential fallback,
// reporting whether anything changed: worker parallelism drops to 1,
// and the multi-phase parallel algorithms (whose sequential runs pay
// pure overhead) fall back to branchless anti-diagonal combing — the
// paper's strongest sequential kernel. The config never enters the
// cache key, so a degraded request still hits a kernel cached under any
// config, and a degraded solve serves every later request.
func degradeConfig(cfg core.Config) (core.Config, bool) {
	seq := cfg
	seq.Workers = 0
	switch cfg.Algorithm {
	case core.LoadBalanced, core.Hybrid, core.GridReduction:
		seq = core.Config{Algorithm: core.AntidiagBranchless}
	}
	if seq == cfg {
		return cfg, false
	}
	return seq, true
}

// acquireRetry is acquire under the engine's retry policy:
// transient solve failures (IsTransient — injected faults today,
// retryable transport errors tomorrow) are re-attempted with
// exponential backoff until the policy or the request's deadline runs
// out. Non-transient errors and successes return immediately, so the
// fault-free path costs one extra branch.
func (e *Engine) acquireRetry(ctx context.Context, req Request, cfg core.Config) (*core.Kernel, error) {
	var k *core.Kernel
	err := e.retryTransient(ctx, "solve", func() error {
		var err error
		k, err = e.acquire(ctx, req, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return k, nil
}

// retryTransient runs op under the engine's retry policy: transient
// failures re-attempt with exponential backoff (counted and traced as
// StageBackoff) until the policy or ctx's deadline runs out. The
// stream mutation path shares this with acquireRetry; op must be safe
// to re-issue after a transient failure (both callers' ops are: a
// failed acquire solved nothing, a failed stream mutation mutated
// nothing).
func (e *Engine) retryTransient(ctx context.Context, what string, op func() error) error {
	err := op()
	if err == nil || !e.retry.enabled() || !IsTransient(err) {
		return err
	}
	for attempt := 2; attempt <= e.retry.MaxAttempts; attempt++ {
		if wait := e.retry.backoffAfter(attempt); wait > 0 {
			bsp := e.rec.Start(obs.StageBackoff)
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				bsp.End()
				return ctx.Err()
			case <-t.C:
			}
			bsp.End()
		}
		e.ctr.Add(obs.CounterRetries, 1)
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("query: %d %s attempts failed: %w", e.retry.MaxAttempts, what, err)
}
