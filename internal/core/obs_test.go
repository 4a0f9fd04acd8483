package core

import (
	"math/rand"
	"testing"

	"semilocal/internal/obs"
)

func randBytes(rng *rand.Rand, n int, sigma byte) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = 'a' + byte(rng.Intn(int(sigma)))
	}
	return s
}

// TestStageCoverage4096 is the acceptance check for the stage tracing:
// on a 4096×4096 solve, the leaf stage spans must account for at least
// 90% of the end-to-end solve wall time — i.e. the breakdown explains
// where the time went rather than leaving it in untraced gaps.
func TestStageCoverage4096(t *testing.T) {
	if testing.Short() {
		t.Skip("4096×4096 solve in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	a := randBytes(rng, 4096, 4)
	b := randBytes(rng, 4096, 4)
	rec := obs.New()
	if _, err := SolveWith(a, b, Config{Algorithm: AntidiagBranchless}, rec, nil); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if s.Stages[obs.StageSolve].Count != 1 {
		t.Fatalf("solve count = %d, want 1", s.Stages[obs.StageSolve].Count)
	}
	if got := s.Counters[obs.CounterCombCells]; got != 4096*4096 {
		t.Fatalf("comb_cells = %d, want %d", got, 4096*4096)
	}
	if cov := s.SolveCoverage(); cov < 0.9 {
		t.Fatalf("stage coverage = %.3f, want ≥ 0.9 (leaf spans must explain the solve wall time)", cov)
	}
}

// TestSolveObservedMatchesSolve: instrumentation must not perturb the
// result — the kernel computed with a recorder attached equals the
// uninstrumented one, for every algorithm.
func TestSolveObservedMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randBytes(rng, 257, 4)
	b := randBytes(rng, 303, 4)
	for _, alg := range Algorithms() {
		for _, workers := range []int{1, 4} {
			cfg := Config{Algorithm: alg, Workers: workers}
			want, err := Solve(a, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			got, err := SolveWith(a, b, cfg, rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Permutation().Equal(want.Permutation()) {
				t.Fatalf("%v workers=%d: observed kernel differs", alg, workers)
			}
			s := rec.Snapshot()
			if s.Stages[obs.StageSolve].Count != 1 {
				t.Fatalf("%v: solve span count = %d", alg, s.Stages[obs.StageSolve].Count)
			}
			if rec.OpenSpans() != 0 {
				t.Fatalf("%v: %d spans left open after solve", alg, rec.OpenSpans())
			}
		}
	}
}
