package query

import (
	"context"
	"sync/atomic"

	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/stream"
)

// StreamGroup is the engine's serving handle over one streaming session
// group (internal/stream): P ≥ 1 fixed patterns against one shared,
// chunked, optionally sliding window of text, all spines mutated in
// lockstep with the chunk's text-side work shared across patterns. A
// single-pattern stream is a group of one (see Stream).
//
// Mutations go through the engine's hardening — the default
// per-request deadline bounds each mutation, and transient failures
// (injected faults today, transport errors tomorrow) retry under the
// engine's RetryPolicy with backoff (the group guarantees a failed
// mutation touched no spine, so blind re-issue is correct for all P
// patterns at once). Reads never block on mutations: Query caches one
// prepared session per pattern per published generation, so repeated
// queries between appends skip re-preprocessing.
//
// All methods are safe for concurrent use. Closing the engine fails
// subsequent mutations with ErrEngineClosed while already-published
// generations stay queryable.
type StreamGroup struct {
	e    *Engine
	g    *stream.Group
	what string // names the mutation in retry-exhausted errors

	cur []atomic.Pointer[streamGen] // per-pattern prepared-session cache
}

// streamGen caches the prepared query session of one published kernel
// generation.
type streamGen struct {
	gen  uint64
	sess *Session
}

// OpenStreamGroup opens a streaming session group over the given
// patterns, wired to the engine's observability, chaos injection,
// worker pool, deadline, and retry policy. Leaf chunks are combed with
// the sequential variant of the engine's solve configuration: chunks
// are small relative to the window, so intra-solve parallelism would
// pay pure overhead per append; the group fans per-pattern work out
// across the engine's pool instead.
//
// Every engine stream, whatever its pattern count, counts in the same
// engine counters (streams_opened, stream_appends, stream_slides).
func (e *Engine) OpenStreamGroup(patterns [][]byte) (*StreamGroup, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	leafCfg, _ := degradeConfig(e.cfg)
	if leafCfg == (core.Config{}) {
		leafCfg = stream.DefaultSolveConfig()
	}
	g, err := stream.NewGroup(patterns, stream.GroupConfig{
		Solve:  &leafCfg,
		Obs:    e.rec,
		Chaos:  e.inj,
		Tuning: e.tn,
		Pool:   e.pool,
	})
	if err != nil {
		return nil, err
	}
	what := "stream group mutation"
	if g.Patterns() == 1 {
		what = "stream mutation"
	}
	e.ctr.Add(obs.CounterStreamsOpened, 1)
	return &StreamGroup{
		e:    e,
		g:    g,
		what: what,
		cur:  make([]atomic.Pointer[streamGen], g.Patterns()),
	}, nil
}

// Append extends the shared window with one chunk across every pattern,
// under the engine's deadline and retry policy. A failed append —
// transient budget exhausted, deadline expired, window overflow —
// leaves every spine on its previous generation; retrying the same
// chunk is always meaningful.
func (sg *StreamGroup) Append(ctx context.Context, chunk []byte) error {
	if sg.e.closed.Load() {
		return ErrEngineClosed
	}
	sg.e.ctr.Add(obs.CounterStreamAppendOps, 1)
	return sg.mutate(ctx, func() error { return sg.g.Append(chunk) })
}

// Slide drops the drop oldest chunks from the shared window, in
// lockstep across every pattern, under the same deadline and retry
// semantics as Append.
func (sg *StreamGroup) Slide(ctx context.Context, drop int) error {
	if sg.e.closed.Load() {
		return ErrEngineClosed
	}
	sg.e.ctr.Add(obs.CounterStreamSlideOps, 1)
	return sg.mutate(ctx, func() error { return sg.g.Slide(drop) })
}

// mutate runs one group mutation under the engine's default deadline
// and transient-retry policy.
func (sg *StreamGroup) mutate(ctx context.Context, op func() error) error {
	if sg.e.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sg.e.deadline)
		defer cancel()
	}
	return sg.e.retryTransient(ctx, sg.what, func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return op()
	})
}

// Session returns the prepared query session for pattern i's latest
// published generation, building the dominance structure at most once
// per pattern per generation (concurrent callers racing a fresh
// generation may build twice; the kernel's internal sync.Once keeps
// that safe and the last-stored cache wins).
func (sg *StreamGroup) Session(i int) *Session {
	cur := sg.g.Snapshot(i)
	if g := sg.cur[i].Load(); g != nil && g.gen == cur.Gen {
		return g.sess
	}
	sess := NewSession(cur.Kernel)
	sg.cur[i].Store(&streamGen{gen: cur.Gen, sess: sess})
	return sess
}

// Query answers one request kind against pattern i's latest published
// generation, validating ranges like BatchSolve does (errors instead of
// panics). Request.A/B, Config and Timeout are ignored: the pair is
// pattern i and the shared window, and mutation — not query — is where
// the deadline applies.
func (sg *StreamGroup) Query(i int, req Request) Result {
	sess := sg.Session(i)
	if err := req.Kind.validate(req.From, req.To, req.Width, sess.M(), sess.N()); err != nil {
		return Result{Err: err}
	}
	qsp := sg.e.rec.Start(obs.StageQuery)
	res := answer(sess, req)
	qsp.End()
	return res
}

// Patterns returns the number of patterns the group serves.
func (sg *StreamGroup) Patterns() int { return sg.g.Patterns() }

// DistinctPatterns returns the number of spines the group actually
// maintains (exact duplicate patterns share one).
func (sg *StreamGroup) DistinctPatterns() int { return sg.g.DistinctPatterns() }

// M returns the length of pattern i.
func (sg *StreamGroup) M(i int) int { return sg.g.M(i) }

// State returns pattern i's latest published generation.
func (sg *StreamGroup) State(i int) stream.State { return sg.g.Snapshot(i) }

// GroupState returns the latest published group-wide generation.
func (sg *StreamGroup) GroupState() stream.GroupState { return sg.g.Current() }

// Generation returns the latest published group generation number.
func (sg *StreamGroup) Generation() uint64 { return sg.g.Generation() }

// Window returns the published shared window length in bytes.
func (sg *StreamGroup) Window() int { return sg.g.Window() }

// Leaves returns the published number of chunks in the shared window.
func (sg *StreamGroup) Leaves() int { return sg.g.Leaves() }

// Compositions returns the total steady-ant compositions across all
// member spines.
func (sg *StreamGroup) Compositions() int64 { return sg.g.Compositions() }

// LeafSolves returns the total leaf chunk solves performed — one per
// relabeling class per append.
func (sg *StreamGroup) LeafSolves() int64 { return sg.g.LeafSolves() }

// LeafShares returns the total per-pattern leaf solves avoided by the
// shared text-side pass.
func (sg *StreamGroup) LeafShares() int64 { return sg.g.LeafShares() }

// Stream is a one-pattern StreamGroup: a fixed pattern against a
// chunked, optionally sliding window of text. It adds only the
// pattern-free spellings of the per-pattern accessors; mutations,
// counters and hardening are the group's.
type Stream struct{ *StreamGroup }

// OpenStream opens a streaming session for pattern a: a one-pattern
// StreamGroup (see OpenStreamGroup).
func (e *Engine) OpenStream(a []byte) (*Stream, error) {
	sg, err := e.OpenStreamGroup([][]byte{a})
	if err != nil {
		return nil, err
	}
	return &Stream{sg}, nil
}

// Session returns the prepared query session for the latest published
// generation.
func (st *Stream) Session() *Session { return st.StreamGroup.Session(0) }

// Query answers one request kind against the latest published
// generation.
func (st *Stream) Query(req Request) Result { return st.StreamGroup.Query(0, req) }

// State returns the latest published generation.
func (st *Stream) State() stream.State { return st.StreamGroup.State(0) }

// M returns the pattern length.
func (st *Stream) M() int { return st.StreamGroup.M(0) }
