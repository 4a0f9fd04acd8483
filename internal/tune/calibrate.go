package tune

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"semilocal/internal/benchkit"
	"semilocal/internal/bitlcs"
	"semilocal/internal/combing"
	"semilocal/internal/core"
	"semilocal/internal/dataset"
	"semilocal/internal/obs"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// Grid is the calibration parameter grid: one axis per tunable knob,
// plus the probe size and repetition count. Calibrate sweeps each axis
// by coordinate descent (winners of earlier axes are held while later
// axes are swept); Points enumerates the full cross-product of the
// core-tuning axes for the differential wall.
type Grid struct {
	// Order is the probe problem size: each timed solve is an
	// Order×Order input.
	Order int
	// Reps is the number of timing repetitions per probe; the minimum
	// is kept (benchkit.Measure).
	Reps int

	// Workers are the candidate solve worker counts.
	Workers []int
	// MinChunks are the candidate parallel-combing chunk floors
	// (core.Tuning.CombMinChunk).
	MinChunks []int
	// Use16 are the candidate 16-bit routing states: true probes with
	// Use16Threshold = combing.Max16, false with 0.
	Use16 []bool
	// HybridSwitches are the candidate hybrid iterative cut-overs
	// (core.Tuning.HybridSwitch).
	HybridSwitches []int
	// PrecalcBases are the candidate steady-ant recursion cut-off
	// orders (core.Tuning.PrecalcBase, 1…steadyant.MaxBase).
	PrecalcBases []int
	// TilesPerWorker are the candidate grid-reduction tile multipliers
	// (core.Tuning.TilesPerWorker).
	TilesPerWorker []int
	// BitVersions are the candidate bit-parallel implementations.
	BitVersions []bitlcs.Version
	// BitMinBlocks are the candidate blocks-per-diagonal floors for
	// parallel bit-parallel scoring.
	BitMinBlocks []int
}

// DefaultGrid is the full calibration grid: every knob's plausible
// range at a probe size large enough that the cross-over effects the
// knobs control are visible.
func DefaultGrid() Grid {
	workers := []int{1}
	for w := 2; w <= runtime.NumCPU(); w *= 2 {
		workers = append(workers, w)
	}
	if n := runtime.NumCPU(); n > 1 && workers[len(workers)-1] != n {
		workers = append(workers, n)
	}
	return Grid{
		Order:          4096,
		Reps:           3,
		Workers:        workers,
		MinChunks:      []int{512, 1024, 2048, 4096, 8192},
		Use16:          []bool{false, true},
		HybridSwitches: []int{1024, 2048, 4096, 8192},
		PrecalcBases:   []int{1, 2, 3, 4, 5},
		TilesPerWorker: []int{1, 2, 4},
		BitVersions:    []bitlcs.Version{bitlcs.FormulaOpt, bitlcs.Fused},
		BitMinBlocks:   []int{2, 4, 8, 16},
	}
}

// TinyGrid is a minimal grid for CI and tests: two points per axis at a
// small probe size, single rep. It exercises every calibration code
// path in well under a second without pretending to find real winners.
func TinyGrid() Grid {
	return Grid{
		Order:          256,
		Reps:           1,
		Workers:        []int{1, 2},
		MinChunks:      []int{256, 2048},
		Use16:          []bool{false, true},
		HybridSwitches: []int{512, 4096},
		PrecalcBases:   []int{3, 5},
		TilesPerWorker: []int{1, 2},
		BitVersions:    []bitlcs.Version{bitlcs.FormulaOpt, bitlcs.Fused},
		BitMinBlocks:   []int{2, 8},
	}
}

func (g Grid) reps() int {
	if g.Reps < 1 {
		return 1
	}
	return g.Reps
}

func (g Grid) order() int {
	if g.Order < 16 {
		return 16
	}
	return g.Order
}

// use16Threshold maps a Use16 axis value onto the Tuning field probed.
func use16Threshold(on bool) int {
	if on {
		return combing.Max16
	}
	return 0
}

// Points enumerates the full cross-product of the core-tuning axes —
// every core.Tuning the calibrator could assemble from this grid. The
// differential wall iterates it to assert each point solves
// bit-identically to the oracle; empty axes contribute their zero
// value, so even a sparse grid yields at least one point.
func (g Grid) Points() []core.Tuning {
	mins := g.MinChunks
	if len(mins) == 0 {
		mins = []int{0}
	}
	use16 := g.Use16
	if len(use16) == 0 {
		use16 = []bool{false}
	}
	switches := g.HybridSwitches
	if len(switches) == 0 {
		switches = []int{0}
	}
	bases := g.PrecalcBases
	if len(bases) == 0 {
		bases = []int{0}
	}
	tiles := g.TilesPerWorker
	if len(tiles) == 0 {
		tiles = []int{0}
	}
	var pts []core.Tuning
	for _, mc := range mins {
		for _, u := range use16 {
			for _, hs := range switches {
				for _, pb := range bases {
					for _, tw := range tiles {
						pts = append(pts, core.Tuning{
							CombMinChunk:   mc,
							Use16Threshold: use16Threshold(u),
							HybridSwitch:   hs,
							PrecalcBase:    pb,
							TilesPerWorker: tw,
						})
					}
				}
			}
		}
	}
	return pts
}

// Calibrate micro-benchmarks the grid on the current machine and
// returns the assembled winning profile. Each probe is one timed sweep
// of a single grid point, recorded as a tune_probe span and counted on
// rec; log (optional) receives one line per axis with the winner.
//
// The sweep is coordinate descent in dependency order: worker count
// first (it parameterizes every later probe), then each solver knob on
// the algorithm that reads it. That is O(sum of axis lengths) probes
// instead of the cross-product, which matches how the knobs compose:
// they control independent code paths, not a coupled response surface.
func Calibrate(g Grid, rec *obs.Recorder, log io.Writer) *Profile {
	n := g.order()
	a := dataset.Normal(n, 1, 1)
	b := dataset.Normal(n, 1, 2)

	p := Default()
	p.CreatedAt = time.Now().UTC().Format(time.RFC3339)

	logf := func(format string, args ...interface{}) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	solve := func(cfg core.Config, tn core.Tuning) {
		if _, err := core.SolveWith(a, b, cfg, nil, nil, &tn); err != nil {
			panic(err) // probe sizes are far below MaxOrder
		}
	}

	// Worker count, probed on the parallel combing path every other
	// parallel probe reuses.
	best := time.Duration(1<<63 - 1)
	for _, w := range g.Workers {
		w := w
		d := g.probe(rec, func() {
			solve(core.Config{Algorithm: core.AntidiagBranchless, Workers: w}, core.Tuning{})
		})
		logf("workers=%d  %v", w, d)
		if d < best {
			best, p.Workers = d, w
		}
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	logf("-> workers=%d", p.Workers)

	// Combing chunk floor, on the tuned worker count.
	best = time.Duration(1<<63 - 1)
	for _, mc := range g.MinChunks {
		tn := core.Tuning{CombMinChunk: mc}
		d := g.probe(rec, func() {
			solve(core.Config{Algorithm: core.AntidiagBranchless, Workers: p.Workers}, tn)
		})
		logf("comb_min_chunk=%d  %v", mc, d)
		if d < best {
			best, p.Core.CombMinChunk = d, mc
		}
	}
	logf("-> comb_min_chunk=%d", p.Core.CombMinChunk)

	// 16-bit strand routing (only meaningful if the probe size is
	// 16-bit eligible; larger inputs fall back regardless).
	best = time.Duration(1<<63 - 1)
	for _, u := range g.Use16 {
		tn := core.Tuning{CombMinChunk: p.Core.CombMinChunk, Use16Threshold: use16Threshold(u)}
		d := g.probe(rec, func() {
			solve(core.Config{Algorithm: core.AntidiagBranchless, Workers: p.Workers}, tn)
		})
		logf("use16=%v  %v", u, d)
		if d < best {
			best, p.Core.Use16Threshold = d, tn.Use16Threshold
		}
	}
	logf("-> use16_threshold=%d", p.Core.Use16Threshold)

	// Hybrid iterative cut-over.
	best = time.Duration(1<<63 - 1)
	for _, hs := range g.HybridSwitches {
		tn := core.Tuning{CombMinChunk: p.Core.CombMinChunk, HybridSwitch: hs}
		d := g.probe(rec, func() {
			solve(core.Config{Algorithm: core.Hybrid, Workers: p.Workers}, tn)
		})
		logf("hybrid_switch=%d  %v", hs, d)
		if d < best {
			best, p.Core.HybridSwitch = d, hs
		}
	}
	logf("-> hybrid_switch=%d", p.Core.HybridSwitch)

	// Steady-ant precalc base, probed directly on the tuned multiply
	// (the exact closure core.SolveWith hands the recursive solvers).
	rng := rand.New(rand.NewSource(7))
	mp := perm.Random(2*n, rng)
	mq := perm.Random(2*n, rng)
	best = time.Duration(1<<63 - 1)
	for _, pb := range g.PrecalcBases {
		mult := steadyant.ObservedMultBase(nil, pb)
		d := g.probe(rec, func() { mult(mp, mq) })
		logf("precalc_base=%d  %v", pb, d)
		if d < best {
			best, p.Core.PrecalcBase = d, pb
		}
	}
	logf("-> precalc_base=%d", p.Core.PrecalcBase)

	// Grid-reduction tile multiplier.
	best = time.Duration(1<<63 - 1)
	for _, tw := range g.TilesPerWorker {
		tn := core.Tuning{
			CombMinChunk:   p.Core.CombMinChunk,
			Use16Threshold: p.Core.Use16Threshold,
			PrecalcBase:    p.Core.PrecalcBase,
			TilesPerWorker: tw,
		}
		d := g.probe(rec, func() {
			solve(core.Config{Algorithm: core.GridReduction, Workers: p.Workers}, tn)
		})
		logf("tiles_per_worker=%d  %v", tw, d)
		if d < best {
			best, p.Core.TilesPerWorker = d, tw
		}
	}
	logf("-> tiles_per_worker=%d", p.Core.TilesPerWorker)

	// Bit-parallel version, sequential (the fused schedule only runs
	// single-threaded; parallel runs fall back to the block formula).
	ba := dataset.Binary(n, 0.5, 3)
	bb := dataset.Binary(n, 0.5, 4)
	best = time.Duration(1<<63 - 1)
	for _, v := range g.BitVersions {
		v := v
		d := g.probe(rec, func() { bitlcs.Score(ba, bb, v, bitlcs.Options{}) })
		logf("bit_version=%s  %v", v, d)
		if d < best {
			best, p.BitVersion = d, v.String()
		}
	}
	logf("-> bit_version=%s", p.BitVersion)

	// Bit-parallel parallel split floor, on the tuned worker count.
	if p.Workers > 1 && len(g.BitMinBlocks) > 0 {
		bv, _ := p.BitVer()
		best = time.Duration(1<<63 - 1)
		for _, mb := range g.BitMinBlocks {
			mb := mb
			d := g.probe(rec, func() {
				bitlcs.Score(ba, bb, bv, bitlcs.Options{Workers: p.Workers, MinBlocks: mb})
			})
			logf("bit_min_blocks=%d  %v", mb, d)
			if d < best {
				best, p.BitMinBlocks = d, mb
			}
		}
		logf("-> bit_min_blocks=%d", p.BitMinBlocks)
	}

	return p
}

// probe times one grid point: a tune_probe span around reps repetitions
// of f, keeping the minimum.
func (g Grid) probe(rec *obs.Recorder, f func()) time.Duration {
	sp := rec.Start(obs.StageTuneProbe)
	d := benchkit.Measure(g.reps(), f)
	sp.End()
	rec.Add(obs.CounterTuneProbes, 1)
	return d
}
