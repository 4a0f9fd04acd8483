package main

import (
	"fmt"
	"time"

	"semilocal/internal/benchkit"
	"semilocal/internal/combing"
	"semilocal/internal/dataset"
	"semilocal/internal/hybrid"
)

// parallelAlg is one line of the thread-scaling figures.
type parallelAlg struct {
	name string
	run  func(a, b []byte, workers int)
}

func parallelAlgs() []parallelAlg {
	return []parallelAlg{
		{"semi_antidiag_simd", func(a, b []byte, w int) {
			combing.Antidiag(a, b, combing.Options{Workers: w, Branchless: true})
		}},
		{"semi_load_balanced", func(a, b []byte, w int) {
			combing.LoadBalanced(a, b, combing.Options{Workers: w, Branchless: true})
		}},
		{"semi_hybrid", func(a, b []byte, w int) {
			hybrid.Hybrid(a, b, hybrid.Options{Depth: log2ceil(w) + 1, Workers: w})
		}},
		{"semi_hybrid_iterative", func(a, b []byte, w int) {
			hybrid.GridReduction(a, b, hybrid.GridOptions{Workers: w, Tiles: 2 * w, Use16: true})
		}},
	}
}

// runThreadSweep measures every parallel algorithm at every thread count
// on the given input pair; it returns times[algIndex][threadIndex].
func runThreadSweep(c *cfg, a, b []byte) [][]time.Duration {
	algs := parallelAlgs()
	out := make([][]time.Duration, len(algs))
	for ai, alg := range algs {
		alg := alg
		out[ai] = make([]time.Duration, len(c.threads()))
		for ti, w := range c.threads() {
			w := w
			out[ai][ti] = benchkit.Measure(c.reps, func() { alg.run(a, b, w) })
		}
	}
	return out
}

func threadSweepInputs(c *cfg) map[string][2][]byte {
	synthA := dataset.Normal(c.threadLen, 1, c.seed)
	synthB := dataset.Normal(c.threadLen, 1, c.seed+1)
	genA, genB := dataset.GenomePair(c.threadLen, c.seed+2)
	return map[string][2][]byte{
		"synthetic σ=1": {synthA, synthB},
		"genome pair":   {genA, genB},
	}
}

// fig7 — running time of the parallel semi-local algorithms against the
// number of worker threads.
func fig7(c *cfg) {
	algs := parallelAlgs()
	for label, pair := range threadSweepInputs(c) {
		header := []string{"threads"}
		for _, alg := range algs {
			header = append(header, alg.name)
		}
		t := benchkit.NewTable(header...)
		times := runThreadSweep(c, pair[0], pair[1])
		for ti, w := range c.threads() {
			row := []interface{}{w}
			for ai := range algs {
				row = append(row, times[ai][ti])
			}
			t.AddRow(row...)
		}
		c.emit(fmt.Sprintf("Figure 7 — running time vs threads (%s, length %s)", label, itoa(c.threadLen)),
			"hybrid beats iterative combing; load-balancing slows things down (mult > saved syncs)", t)
	}
}

// fig8 — the same sweep reported as scalability (speedup over one
// worker).
func fig8(c *cfg) {
	algs := parallelAlgs()
	for label, pair := range threadSweepInputs(c) {
		header := []string{"threads"}
		for _, alg := range algs {
			header = append(header, alg.name)
		}
		t := benchkit.NewTable(header...)
		times := runThreadSweep(c, pair[0], pair[1])
		for ti, w := range c.threads() {
			row := []interface{}{w}
			for ai := range algs {
				row = append(row, benchkit.Ratio(times[ai][0], times[ai][ti]))
			}
			t.AddRow(row...)
		}
		c.emit(fmt.Sprintf("Figure 8 — scalability (%s, length %s)", label, itoa(c.threadLen)),
			"paper: up to 4-5x at 7 threads on 8 cores; bounded by GOMAXPROCS/core count here", t)
	}
}

func log2ceil(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
