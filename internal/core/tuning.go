package core

import "semilocal/internal/steadyant"

// MaxPrecalcBase is the largest valid Tuning.PrecalcBase: the order of
// the steady-ant precalc table.
const MaxPrecalcBase = steadyant.MaxBase

// Tuning carries the per-machine calibrated parameters the solvers read
// in place of their built-in constants. It is threaded through Solve as
// an argument — like the obs recorder and the chaos injector — rather
// than stored in Config. Tuning never changes answers, only which code
// path produces them (the grid-sweep differential wall pins this
// bit-identically).
//
// A nil *Tuning and the zero value both reproduce the untuned defaults
// exactly. Each field's zero value means "use the built-in constant",
// so a profile may pin any subset of the knobs.
type Tuning struct {
	// CombMinChunk is the minimum anti-diagonal length worth splitting
	// across workers in parallel combing (combing.Options.MinChunk);
	// 0 keeps the built-in 2048.
	CombMinChunk int `json:"comb_min_chunk,omitempty"`
	// Use16Threshold routes branchless anti-diagonal combing to the
	// 16-bit strand kernels when m+n ≤ threshold (and the size is
	// 16-bit eligible at all); 0 disables the tuned 16-bit route. It
	// also arms Use16 tile combing in GridReduction.
	Use16Threshold int `json:"use16_threshold,omitempty"`
	// HybridSwitch is the problem size below which Hybrid stops
	// splitting and combs iteratively; 0 keeps the built-in 4096.
	HybridSwitch int `json:"hybrid_switch,omitempty"`
	// HybridMaxDepth caps the hybrid recursion depth the size heuristic
	// may choose; 0 keeps the built-in 6.
	HybridMaxDepth int `json:"hybrid_max_depth,omitempty"`
	// PrecalcBase is the steady-ant recursion cut-off order (1…5);
	// 0 keeps the built-in 5.
	PrecalcBase int `json:"precalc_base,omitempty"`
	// TilesPerWorker multiplies the worker count into GridReduction's
	// default tile target (more tiles than workers smooths load
	// imbalance); 0 keeps the built-in one tile per worker.
	TilesPerWorker int `json:"tiles_per_worker,omitempty"`
}

// The nil-safe accessors below let the dispatch read tuned values
// without branching on the pointer at every use site.

func (t *Tuning) combMinChunk() int {
	if t == nil {
		return 0
	}
	return t.CombMinChunk
}

func (t *Tuning) use16(m, n int) bool {
	return t != nil && t.Use16Threshold > 0 && m+n <= t.Use16Threshold
}

func (t *Tuning) use16Enabled() bool {
	return t != nil && t.Use16Threshold > 0
}

func (t *Tuning) hybridSwitch() int {
	if t == nil || t.HybridSwitch <= 0 {
		return defaultHybridSwitch
	}
	return t.HybridSwitch
}

func (t *Tuning) hybridMaxDepth() int {
	if t == nil || t.HybridMaxDepth <= 0 {
		return defaultHybridMaxDepth
	}
	return t.HybridMaxDepth
}

func (t *Tuning) precalcBase() int {
	if t == nil {
		return 0
	}
	return t.PrecalcBase
}

func (t *Tuning) tiles(cfgTiles, workers int) int {
	if cfgTiles > 0 || t == nil || t.TilesPerWorker <= 0 {
		return cfgTiles
	}
	w := workers
	if w < 1 {
		w = 1
	}
	return w * t.TilesPerWorker
}
