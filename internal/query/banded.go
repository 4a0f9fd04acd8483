package query

// The banded fast path of the engine: an input-shape dispatcher that
// answers distance-only (Score) requests on near-identical inputs with
// the Landau–Vishkin diagonal BFS from internal/banded instead of full
// kernel construction. Kernel construction is Θ(mn); the BFS is
// O(n + k²·log n) for pairs within edit distance k, so for the traffic
// this path targets — deduplication, replication checks, near-duplicate
// detection — it is the difference between microseconds and hours at
// n = 10⁶.
//
// The dispatch is conservative and never changes an answer: a cheap
// divergence probe (prefix/suffix trim plus sampled anchors) votes on
// routability, the BFS itself carries a band budget and exits early
// when the pair is more divergent than the probe guessed, and both
// refusals land the request on the ordinary kernel pipeline. Chaos can
// force the same fallback at PointBanded, which is what the chaos
// metamorphic suite exploits: routing changes, answers don't.

import (
	"context"

	"semilocal/internal/banded"
	"semilocal/internal/chaos"
	"semilocal/internal/obs"
)

// BandedConfig configures the engine's banded fast path.
type BandedConfig struct {
	// Enabled turns the dispatcher on. Off (the zero value), every
	// request takes the kernel pipeline and the banded counters stay 0.
	Enabled bool
	// MaxK is the edit-distance budget of the band: pairs within MaxK
	// edits are answered by the BFS, pairs beyond it fall back to the
	// kernel. Values ≤ 0 derive the budget per request from
	// banded.AutoMaxK, which encodes the measured crossover.
	MaxK int
}

// maxKFor resolves the band budget for one input pair.
func (c BandedConfig) maxKFor(m, n int) int {
	if c.MaxK > 0 {
		return c.MaxK
	}
	return banded.AutoMaxK(m, n)
}

// tryBanded attempts to answer a Score request on the banded fast path.
// It reports ok=false when the request must fall back to the kernel
// pipeline (probe veto, band blow-up, or injected fault) — every such
// refusal increments band_fallbacks, so for a banded-eligible load
// requests_banded + band_fallbacks accounts for every eligible request.
// An ok=true result is final: either the exact Score answer or the
// request's context error if the deadline expired mid-path (a late
// answer is still an error, same as the kernel path).
func (e *Engine) tryBanded(ctx context.Context, req Request) (Result, bool) {
	if e.inj.Fire(chaos.PointBanded) == chaos.FaultError {
		// The fast path absorbs the injected failure by routing the
		// request onto the kernel pipeline; no error surfaces.
		return e.bandFallback(), false
	}
	maxK := e.banded.maxKFor(len(req.A), len(req.B))
	psp := e.rec.Start(obs.StageBandProbe)
	probe := banded.ProbeBand(req.A, req.B, maxK)
	psp.End()
	if !probe.Routable(maxK) {
		return e.bandFallback(), false
	}
	// Score is LCS similarity; an edit budget of maxK unit-cost edits
	// corresponds to an indel budget of 2·maxK in the LCS metric.
	bsp := e.rec.Start(obs.StageBandedBFS)
	score, ok := banded.LCSScoreBounded(req.A, req.B, 2*maxK)
	bsp.End()
	if !ok {
		return e.bandFallback(), false
	}
	if err := ctx.Err(); err != nil {
		return Result{Err: err}, true
	}
	e.ctr.Add(obs.CounterBandedRequests, 1)
	return Result{Score: score}, true
}

// bandFallback counts one kernel fallback and returns the empty result
// the dispatcher discards.
func (e *Engine) bandFallback() Result {
	e.ctr.Add(obs.CounterBandFallbacks, 1)
	return Result{}
}
