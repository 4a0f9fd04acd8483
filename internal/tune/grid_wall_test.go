package tune

import (
	"math/rand"
	"testing"

	"semilocal/internal/bitlcs"
	"semilocal/internal/core"
	"semilocal/internal/oracle"
)

// wallConfigs are the solve configurations that between them read every
// core-tuning knob: CombMinChunk and Use16Threshold (anti-diagonal
// combing, sequential and parallel), PrecalcBase (every multiply-backed
// solver), HybridSwitch (hybrid), TilesPerWorker and Use16Threshold
// again (grid reduction).
func wallConfigs() []core.Config {
	return []core.Config{
		{Algorithm: core.AntidiagBranchless},
		{Algorithm: core.AntidiagBranchless, Workers: 3},
		{Algorithm: core.LoadBalanced, Workers: 3},
		{Algorithm: core.Recursive},
		{Algorithm: core.Hybrid, Workers: 3},
		{Algorithm: core.GridReduction, Workers: 3},
	}
}

func wallGrid(t *testing.T) Grid {
	if testing.Short() {
		return TinyGrid()
	}
	return DefaultGrid()
}

// TestGridSweepBitIdentical is the calibration soundness wall: every
// core.Tuning the calibrator could assemble from the grid must produce
// the bit-identical kernel on every tuned algorithm — same permutation
// as the untuned reference solve, same score as the independent
// quadratic DP. This is what licenses keeping Tuning out of the cache
// key and trusting any profile the loader accepts.
func TestGridSweepBitIdentical(t *testing.T) {
	pairs := []oracle.Pair{
		{Name: "empty-a", A: nil, B: []byte("abcab")},
		{Name: "classic", A: []byte("abcabba"), B: []byte("cbabac")},
	}
	for _, p := range oracle.AdversarialPairs() {
		if len(p.A)+len(p.B) <= 160 {
			pairs = append(pairs, p)
		}
		if len(pairs) >= 6 {
			break
		}
	}
	rng := rand.New(rand.NewSource(42))
	a, b := oracle.RandomPair(rng, 90, 4)
	pairs = append(pairs, oracle.Pair{Name: "random", A: a, B: b})

	points := wallGrid(t).Points()
	cfgs := wallConfigs()
	for _, pr := range pairs {
		pr := pr
		t.Run(pr.Name, func(t *testing.T) {
			want := oracle.Score(pr.A, pr.B)
			ref, err := core.Solve(pr.A, pr.B, core.Config{Algorithm: core.RowMajor})
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range points {
				tn := tn
				for _, cfg := range cfgs {
					k, err := core.SolveWith(pr.A, pr.B, cfg, nil, nil, &tn)
					if err != nil {
						t.Fatalf("%v tuning=%+v: %v", cfg.Algorithm, tn, err)
					}
					if !k.Permutation().Equal(ref.Permutation()) {
						t.Fatalf("%v tuning=%+v: kernel differs from untuned reference", cfg.Algorithm, tn)
					}
					if got := k.Score(); got != want {
						t.Fatalf("%v tuning=%+v: score %d, oracle %d", cfg.Algorithm, tn, got, want)
					}
				}
			}
		})
	}
}

// TestGridSweepRandomized drives 200 random (input, grid point,
// algorithm) triples through the same bit-identical assertion — the
// sampled complement of the exhaustive table above.
func TestGridSweepRandomized(t *testing.T) {
	points := wallGrid(t).Points()
	cfgs := wallConfigs()
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		a, b := oracle.RandomPair(rng, 100, 1+rng.Intn(5))
		tn := points[rng.Intn(len(points))]
		cfg := cfgs[rng.Intn(len(cfgs))]
		k, err := core.SolveWith(a, b, cfg, nil, nil, &tn)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := core.Solve(a, b, cfg)
		if err != nil {
			t.Fatalf("trial %d: untuned solve: %v", trial, err)
		}
		if !k.Permutation().Equal(ref.Permutation()) {
			t.Fatalf("trial %d: %v tuning=%+v: tuned kernel differs from untuned (|a|=%d |b|=%d)",
				trial, cfg.Algorithm, tn, len(a), len(b))
		}
		if got, want := k.Score(), oracle.Score(a, b); got != want {
			t.Fatalf("trial %d: score %d, oracle %d", trial, got, want)
		}
	}
}

// TestGridSweepBitParallel walls off the bit-parallel axes: every
// (version, min-blocks, workers) point the calibrator can select must
// score identically to the quadratic oracle, including the fused
// single-pass schedule.
func TestGridSweepBitParallel(t *testing.T) {
	g := wallGrid(t)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(300)
		a, b := make([]byte, 1+rng.Intn(n)), make([]byte, n)
		for i := range a {
			a[i] = byte(rng.Intn(2))
		}
		for i := range b {
			b[i] = byte(rng.Intn(2))
		}
		want := oracle.Score(a, b)
		for _, v := range g.BitVersions {
			for _, mb := range g.BitMinBlocks {
				for _, w := range []int{1, 4} {
					got := bitlcs.Score(a, b, v, bitlcs.Options{Workers: w, MinBlocks: mb})
					if got != want {
						t.Fatalf("trial %d: %v workers=%d minblocks=%d: score %d, oracle %d",
							trial, v, w, mb, got, want)
					}
				}
			}
		}
	}
}
