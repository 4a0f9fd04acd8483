package semilocal_test

import (
	"math"
	"testing"
	"time"

	"semilocal/internal/benchkit"
	"semilocal/internal/bitlcs"
	"semilocal/internal/combing"
	"semilocal/internal/dataset"
	"semilocal/internal/hybrid"
	"semilocal/internal/obs"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"

	"math/rand"
)

// TestPaperShapes asserts the paper's robust qualitative findings as
// executable checks — who wins, not by how much. Margins are generous so
// the test stays stable across machines; run the full sweeps with
// cmd/benchsuite for quantitative results. Skipped under -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparisons skipped in short mode")
	}
	steadyant.WarmPrecalc()
	measure := func(f func()) time.Duration { return benchkit.Measure(3, f) }

	t.Run("CombinedBraidMultBeatsBase", func(t *testing.T) {
		// Figure 4a: the combined optimizations speed up the steady ant.
		rng := rand.New(rand.NewSource(1))
		p, q := perm.Random(200_000, rng), perm.Random(200_000, rng)
		base := measure(func() { steadyant.MultiplyVariant(p, q, steadyant.Base) })
		comb := measure(func() { steadyant.MultiplyVariant(p, q, steadyant.Combined) })
		if float64(comb) > 0.95*float64(base) {
			t.Errorf("combined (%v) not clearly faster than base (%v)", comb, base)
		}
	})

	t.Run("BitParallelCrushesCombing", func(t *testing.T) {
		// Figure 9e: the bit-parallel algorithm is an order of magnitude
		// faster than word-level combing on binary strings (paper: 29x).
		a, b := dataset.Binary(20_000, 0.5, 1), dataset.Binary(20_000, 0.5, 2)
		bit := measure(func() { bitlcs.Score(a, b, bitlcs.FormulaOpt, bitlcs.Options{}) })
		comb := measure(func() { combing.Antidiag(a, b, combing.Options{Branchless: true}) })
		if float64(comb) < 5*float64(bit) {
			t.Errorf("bit-parallel (%v) should beat combing (%v) by far more than 5x", bit, comb)
		}
	})

	t.Run("FormulaOptNotSlower", func(t *testing.T) {
		// Figure 9b: the 12-op formula beats the 18-op one (paper: 1.48x).
		a, b := dataset.Binary(100_000, 0.5, 1), dataset.Binary(100_000, 0.5, 2)
		mem := measure(func() { bitlcs.Score(a, b, bitlcs.MemOpt, bitlcs.Options{}) })
		form := measure(func() { bitlcs.Score(a, b, bitlcs.FormulaOpt, bitlcs.Options{}) })
		if float64(form) > 1.05*float64(mem) {
			t.Errorf("formula-optimized (%v) slower than bit_new_1 (%v)", form, mem)
		}
	})

	t.Run("DeepHybridCostsSequentialTime", func(t *testing.T) {
		// Figure 6: on short inputs, a deep switch threshold slows the
		// sequential hybrid down.
		a, b := dataset.Normal(10_000, 1, 1), dataset.Normal(10_000, 1, 2)
		flat := measure(func() { hybrid.Hybrid(a, b, hybrid.Options{Depth: 0}) })
		deep := measure(func() { hybrid.Hybrid(a, b, hybrid.Options{Depth: 6}) })
		if float64(deep) < 1.05*float64(flat) {
			t.Errorf("depth-6 hybrid (%v) should be slower than depth-0 (%v) sequentially", deep, flat)
		}
	})

	t.Run("PrecalcBaseFiveBeatsBaseOne", func(t *testing.T) {
		// Figure 4a / ablation: deeper lookup base trims recursion.
		rng := rand.New(rand.NewSource(2))
		p, q := perm.Random(200_000, rng), perm.Random(200_000, rng)
		// Repetitions alternate (b1, b5, b1, b5, …) so load drift from
		// packages tested in parallel hits both sides alike.
		b1, b5 := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			b1 = min(b1, benchkit.Measure(1, func() { steadyant.MultiplyWithBase(p, q, 1) }))
			b5 = min(b5, benchkit.Measure(1, func() { steadyant.MultiplyWithBase(p, q, 5) }))
		}
		if float64(b5) > float64(b1) {
			t.Errorf("lookup base 5 (%v) slower than base 1 (%v)", b5, b1)
		}
	})
}

// TestDeepHybridCountedWork is the counted-work half of Figure 6, beside
// the wall-clock TestPaperShapes/DeepHybridCostsSequentialTime: at 10⁴ a
// depth-6 hybrid combs exactly the m·n cells depth 0 combs and pays
// for braid compositions on top, so the extra sequential time the
// figure shows is composition work, whatever the host's noise.
func TestDeepHybridCountedWork(t *testing.T) {
	a, b := dataset.Normal(10_000, 1, 1), dataset.Normal(10_000, 1, 2)
	counted := func(depth int) (cells, composeOrder int64) {
		rec := obs.New()
		hybrid.Hybrid(a, b, hybrid.Options{Depth: depth, Rec: rec})
		return rec.Counter(obs.CounterCombCells), rec.Counter(obs.CounterComposeOrder)
	}
	cells := int64(len(a)) * int64(len(b))
	flatCells, flatOrder := counted(0)
	deepCells, deepOrder := counted(6)
	if flatCells != cells || deepCells != cells {
		t.Errorf("comb_cells = %d at depth 0, %d at depth 6; want m·n = %d at both", flatCells, deepCells, cells)
	}
	if deepOrder <= flatOrder {
		t.Errorf("compose_order = %d at depth 6, %d at depth 0; depth 6 must compose more", deepOrder, flatOrder)
	}
}
