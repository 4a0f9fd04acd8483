package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/dominance"
	"semilocal/internal/oracle"
)

func solvePair(t *testing.T, rng *rand.Rand, m, n, sigma int) (a, b []byte, lazy, eager *core.Kernel) {
	t.Helper()
	a, b = make([]byte, m), make([]byte, n)
	for i := range a {
		a[i] = byte('a' + rng.Intn(sigma))
	}
	for i := range b {
		b[i] = byte('a' + rng.Intn(sigma))
	}
	lazy, err := core.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eager = core.NewKernel(lazy.Permutation(), m, n).Prepare()
	return a, b, lazy, eager
}

// TestKernelOnDemandIndex pins the ski-rental query index: a kernel
// answers H by direct counting until its scan work would exceed the
// tree's build cost N·⌈log₂N⌉, then builds the tree exactly once.
func TestKernelOnDemandIndex(t *testing.T) {
	t.Run("matches prepared and oracle", func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for trial := 0; trial < 40; trial++ {
			a, b, lazy, eager := solvePair(t, rng, rng.Intn(12), rng.Intn(12), 1+rng.Intn(4))
			h := oracle.HMatrix(a, b)
			order := len(a) + len(b)
			// The full sweep crosses the scan budget part way through,
			// so both the scan and the tree answer some entries.
			for i := 0; i <= order; i++ {
				for j := 0; j <= order; j++ {
					got, want := lazy.H(i, j), eager.H(i, j)
					if got != want || got != h[i][j] {
						t.Fatalf("a=%q b=%q H(%d,%d): on-demand %d, prepared %d, oracle %d",
							a, b, i, j, got, want, h[i][j])
					}
				}
			}
		}
	})

	t.Run("builds once after budget", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		_, _, k, eager := solvePair(t, rng, 90, 110, 4)
		order := k.M() + k.N()
		// H(0, ·) scans all order strands, so the budget pays for
		// exactly Levels(order) of them before the tree is bought.
		for q := 0; q < dominance.Levels(order); q++ {
			j := rng.Intn(order + 1)
			if got, want := k.H(0, j), eager.H(0, j); got != want {
				t.Fatalf("scan H(0,%d) = %d, want %d", j, got, want)
			}
			if k.Prepared() {
				t.Fatalf("tree built after %d scans, within the budget", q+1)
			}
		}
		if got, want := k.H(0, order/2), eager.H(0, order/2); got != want {
			t.Fatalf("crossing H(0,%d) = %d, want %d", order/2, got, want)
		}
		tree := core.Index(k)
		if tree == nil || !k.Prepared() {
			t.Fatal("tree not built once the scan budget was crossed")
		}
		for i := 0; i <= order; i++ {
			if got, want := k.H(i, order-i), eager.H(i, order-i); got != want {
				t.Fatalf("tree H(%d,%d) = %d, want %d", i, order-i, got, want)
			}
		}
		k.Prepare()
		if core.Index(k) != tree {
			t.Fatal("tree rebuilt after its first build")
		}
	})

	t.Run("direct count allocates nothing", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		_, _, k, _ := solvePair(t, rng, 100, 100, 4)
		order := k.M() + k.N()
		// Each H(order-1, ·) scans one strand: 101 runs stay far
		// inside the budget, so every measured call is a direct count.
		if got := testing.AllocsPerRun(100, func() { k.H(order-1, order/2) }); got != 0 {
			t.Fatalf("direct-count H allocates %v times per run, want 0", got)
		}
		if k.Prepared() {
			t.Fatal("measured calls reached the tree; the guard must measure the scan")
		}
	})
}

// TestKernelOnDemandIndexConcurrent has 8 goroutines query one fresh
// unprepared kernel across its build threshold: some answer by scan,
// some wait on the build, all must match the prepared kernel. Run with
// -race to check the tree's publication.
func TestKernelOnDemandIndexConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	_, _, k, eager := solvePair(t, rng, 60, 80, 3)
	order := k.M() + k.N()
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for q := 0; q < 4*order; q++ {
				i, j := (q*7+g)%(order+1), (q*13+g*5)%(order+1)
				if got, want := k.H(i, j), eager.H(i, j); got != want {
					errs <- "on-demand answer deviates from the prepared kernel"
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !k.Prepared() {
		t.Fatal("8×4N queries never crossed the scan budget")
	}
}
