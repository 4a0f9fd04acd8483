package banded

// The k-scaling benchmark family behind EXPERIMENTS.md's "banded vs.
// kernel" section: banded distance at n = 10⁶ with planted edit counts
// k ∈ {1, 16, 256, 4096}, against full kernel construction at sizes the
// kernel can realistically run (its Θ(mn) cost makes 10⁶×10⁶
// construction a multi-hour affair — which is the point of the fast
// path). BenchmarkCrossover sweeps k upward at a fixed n where both
// paths are measurable, locating the wall-clock crossover that
// AutoMaxK encodes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"semilocal/internal/core"
)

// plantedPair returns a pseudo-random base string of length n and a
// copy with k planted edits (substitutions, insertions and deletions in
// roughly equal measure).
func plantedPair(n, k int, seed int64) (a, b []byte) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]byte, n)
	for i := range a {
		a[i] = byte('A' + rng.Intn(26))
	}
	b = mutateBench(rng, a, k)
	return a, b
}

func mutateBench(rng *rand.Rand, a []byte, k int) []byte {
	b := append([]byte(nil), a...)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0:
			b[rng.Intn(len(b))] = byte('A' + rng.Intn(26))
		case op == 1:
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{byte('A' + rng.Intn(26))}, b[p:]...)...)
		case op == 2 && len(b) > 0:
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		}
	}
	return b
}

func BenchmarkDistanceKScaling(b *testing.B) {
	const n = 1_000_000
	for _, k := range []int{1, 16, 256, 4096} {
		x, y := plantedPair(n, k, int64(k))
		b.Run(fmt.Sprintf("n=1e6/k=%d", k), func(b *testing.B) {
			b.SetBytes(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Distance(x, y)
			}
		})
	}
}

func BenchmarkLCSScoreKScaling(b *testing.B) {
	const n = 1_000_000
	for _, k := range []int{1, 16, 256, 4096} {
		x, y := plantedPair(n, k, int64(k))
		b.Run(fmt.Sprintf("n=1e6/k=%d", k), func(b *testing.B) {
			b.SetBytes(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				LCSScore(x, y)
			}
		})
	}
}

// BenchmarkKernelConstruction measures the path the dispatcher falls
// back to — a full semi-local kernel solve — at sizes where Θ(mn) is
// runnable. EXPERIMENTS.md extrapolates quadratically to n = 10⁶.
func BenchmarkKernelConstruction(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536} {
		x, y := plantedPair(n, 16, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(x, y, core.Config{Algorithm: core.AntidiagBranchless}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossover sweeps the planted edit count at n = 65536 (where
// the kernel is measurable) so the banded-vs-kernel crossover can be
// read off one run: compare against BenchmarkKernelConstruction/n=65536.
func BenchmarkCrossover(b *testing.B) {
	const n = 65536
	for _, k := range []int{256, 1024, 4096, 8192, 16384} {
		x, y := plantedPair(n, k, int64(k))
		b.Run(fmt.Sprintf("banded/n=65536/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Distance(x, y)
			}
		})
	}
}

// BenchmarkProbe prices the dispatcher's routing overhead.
func BenchmarkProbe(b *testing.B) {
	const n = 1_000_000
	x, y := plantedPair(n, 16, 1)
	b.Run("similar/n=1e6", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			ProbeBand(x, y, 4096)
		}
	})
	_, z := plantedPair(n, 0, 2)
	b.Run("divergent/n=1e6", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			ProbeBand(x, z, 4096)
		}
	})
}

// adversarialPair is one named input pair of BenchmarkAdversarial.
type adversarialPair struct {
	name   string
	a, b   []byte
	within bool // the indel distance fits 2·AutoMaxK
}

// adversarialPairs are the BFS's worst shapes at batch_near's size, for
// BenchmarkAdversarial. Periodic text makes every diagonal that is a
// multiple of the period snake far, the worst case for the LCP
// compares:
//   - periodic-near: a period-3 string and a copy with 16 planted edits,
//     answered within the budget;
//   - periodic-divergent: (ab)* against (ba)* for half the length, then
//     unrelated random tails, so every odd diagonal snakes through the
//     whole periodic half before the band exhausts 2·AutoMaxK. Running
//     the whole budget, it also prices the O(D²) frontier updates.
func adversarialPairs(n int) []adversarialPair {
	rng := rand.New(rand.NewSource(3))
	periodic := func(unit string, l int) []byte {
		return bytes.Repeat([]byte(unit), l/len(unit)+1)[:l]
	}
	tail := func() []byte {
		s := make([]byte, n/2)
		for i := range s {
			s[i] = byte('c' + rng.Intn(24))
		}
		return s
	}
	near := periodic("ACG", n)
	return []adversarialPair{
		{"periodic-near", near, mutateBench(rng, near, 16), true},
		{"periodic-divergent", append(periodic("ab", n/2), tail()...), append(periodic("ba", n/2), tail()...), false},
	}
}

// BenchmarkAdversarial runs both bounded move sets on adversarialPairs
// at the budgets the dispatchers use (LCS: 2·AutoMaxK indels, as
// internal/query; distance: AutoMaxK edits, as internal/editdist).
func BenchmarkAdversarial(b *testing.B) {
	const n = 32768
	maxK := AutoMaxK(n, n)
	for _, p := range adversarialPairs(n) {
		x, y := p.a, p.b
		if _, ok := LCSScoreBounded(x, y, 2*maxK); ok != p.within {
			b.Fatalf("%s: within budget = %v, want %v", p.name, ok, p.within)
		}
		b.Run(p.name+"/lcs/n=32768", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LCSScoreBounded(x, y, 2*maxK)
			}
		})
		b.Run(p.name+"/distance/n=32768", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DistanceBounded(x, y, maxK)
			}
		})
	}
}
