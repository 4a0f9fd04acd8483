package tune

import (
	"testing"

	"semilocal/internal/bitlcs"
	"semilocal/internal/core"
	"semilocal/internal/dataset"
)

// The before/after pairs backing the EXPERIMENTS.md calibration entry.
// "Calibrated" pins the profile that `semilocal -calibrate` selects on
// the single-core reference container (see EXPERIMENTS.md); re-run
// -calibrate and update both if the reference hardware changes.
var calibrated = &core.Tuning{
	CombMinChunk:   512,
	HybridSwitch:   2048,
	PrecalcBase:    4,
	TilesPerWorker: 1,
}

func benchSolve(b *testing.B, cfg core.Config, tn *core.Tuning) {
	x := dataset.Normal(4096, 1, 1)
	y := dataset.Normal(4096, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveWith(x, y, cfg, nil, nil, tn); err != nil {
			b.Fatal(err)
		}
	}
}

// Baseline: the row-major comb every config falls back to before any
// machine-specific routing — the shape a zero-value Config solves with.
func BenchmarkSolve4096Baseline(b *testing.B) {
	benchSolve(b, core.Config{Algorithm: core.RowMajor}, nil)
}

// Calibrated: the branchless anti-diagonal comb under the profile the
// calibrator picks here (it measures, so on this 1-CPU box it keeps
// use16 off and workers at 1 rather than guessing).
func BenchmarkSolve4096Calibrated(b *testing.B) {
	benchSolve(b, core.Config{Algorithm: core.AntidiagBranchless}, calibrated)
}

func benchBit(b *testing.B, v bitlcs.Version) {
	x := dataset.Binary(4096, 0.5, 1)
	y := dataset.Binary(4096, 0.5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitlcs.Score(x, y, v, bitlcs.Options{})
	}
}

// The bit-parallel ladder's endpoints: the paper's original kernel vs
// the version the bit_version axis of the grid selects on this machine.
func BenchmarkBit4096Baseline(b *testing.B)   { benchBit(b, bitlcs.Old) }
func BenchmarkBit4096Calibrated(b *testing.B) { benchBit(b, bitlcs.FormulaOpt) }
