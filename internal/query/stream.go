package query

import (
	"context"

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
// patterns at once). Reads never block on mutations: Query answers on
// the kernel a pattern's latest generation published, and a kernel
// builds its query index once, so repeated queries between appends
// skip re-preprocessing.
//
// All methods are safe for concurrent use. Closing the engine fails
// subsequent mutations with ErrEngineClosed while already-published
// generations stay queryable.
type StreamGroup struct {
	e    *Engine
	g    *stream.Group
	what string // names the mutation in retry-exhausted errors
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
		Solve: &leafCfg,
		Obs:   e.rec,
		Chaos: e.inj,
		Pool:  e.pool,
	})
	if err != nil {
		return nil, err
	}
	what := "stream group mutation"
	if g.Patterns() == 1 {
		what = "stream mutation"
	}
	e.ctr.Add(obs.CounterStreamsOpened, 1)
	return &StreamGroup{e: e, g: g, what: what}, nil
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

// Session returns the kernel pattern i's latest generation published,
// prepared: its dominance tree is built once per generation, by the
// first caller (the kernel's sync.Once).
func (sg *StreamGroup) Session(i int) *Session {
	return sg.g.Snapshot(i).Kernel.Prepare()
}

// Query answers one request kind against pattern i's latest published
// generation through Answer (errors instead of panics). Request.A/B
// and Timeout are ignored: the pair is pattern i and the shared window,
// and mutation — not query — is where the deadline applies. A request
// out of range is rejected before the query span starts, as in
// BatchSolve.
func (sg *StreamGroup) Query(i int, req Request) Result {
	k := sg.Session(i)
	if err := req.Validate(k.M(), k.N()); err != nil {
		return Result{Err: err}
	}
	qsp := sg.e.rec.Start(obs.StageQuery)
	res := Answer(k, req)
	qsp.End()
	return res
}

// Patterns returns the number of patterns the group serves.
func (sg *StreamGroup) Patterns() int { return sg.g.Patterns() }

// DistinctPatterns returns the number of spines the group actually
// maintains (exact duplicate patterns share one).
func (sg *StreamGroup) DistinctPatterns() int { return sg.g.DistinctPatterns() }

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

// Query answers one request kind against the latest published
// generation.
func (st *Stream) Query(req Request) Result { return st.StreamGroup.Query(0, req) }
