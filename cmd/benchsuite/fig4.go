package main

import (
	"fmt"
	"math/rand"
	"time"

	"semilocal/internal/benchkit"
	"semilocal/internal/combing"
	"semilocal/internal/dataset"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// fig4a — sequential braid multiplication: speedup of the precalc,
// memory and combined optimizations over the unoptimized steady ant, on
// random permutations of growing size.
func fig4a(c *cfg) {
	t := benchkit.NewTable("size", "base", "precalc", "memory", "combined",
		"speedup_precalc", "speedup_memory", "speedup_combined")
	for i, n := range c.permSizes {
		rng := rand.New(rand.NewSource(c.seed + int64(i)))
		p, q := perm.Random(n, rng), perm.Random(n, rng)
		times := make(map[steadyant.Variant]time.Duration)
		for _, v := range []steadyant.Variant{steadyant.Base, steadyant.Precalc, steadyant.Memory, steadyant.Combined} {
			v := v
			times[v] = benchkit.Measure(c.reps, func() { steadyant.MultiplyVariant(p, q, v) })
		}
		t.AddRow(n, times[steadyant.Base], times[steadyant.Precalc], times[steadyant.Memory], times[steadyant.Combined],
			benchkit.Ratio(times[steadyant.Base], times[steadyant.Precalc]),
			benchkit.Ratio(times[steadyant.Base], times[steadyant.Memory]),
			benchkit.Ratio(times[steadyant.Base], times[steadyant.Combined]))
	}
	c.emit("Figure 4a — braid multiplication optimizations",
		"speedups > 1, decreasing with size; combined ≈ 1.75x at 1e7", t)
}

// fig4b — parallel braid multiplication: running time against the depth
// at which the recursion switches to the sequential algorithm.
func fig4b(c *cfg) {
	n := c.permBig
	rng := rand.New(rand.NewSource(c.seed))
	p, q := perm.Random(n, rng), perm.Random(n, rng)
	seq := benchkit.Measure(c.reps, func() { steadyant.Multiply(p, q) })
	t := benchkit.NewTable("switch_depth", "time", "speedup_vs_sequential")
	t.AddRow(0, seq, benchkit.Ratio(seq, seq))
	for depth := 1; depth <= 6; depth++ {
		depth := depth
		d := benchkit.Measure(c.reps, func() {
			steadyant.MultiplyParallel(p, q, steadyant.ParallelOptions{SwitchDepth: depth, Workers: c.maxThreads})
		})
		t.AddRow(depth, d, benchkit.Ratio(seq, d))
	}
	c.emit("Figure 4b — parallel braid multiplication vs switch depth (size "+itoa(n)+")",
		"optimum near depth 4, ≈ 3.7x on the paper's 8 cores (≈ 1x on a single-core host)", t)
}

// fig4c — sequential iterative combing, basic vs load-balanced, with the
// braid multiplication share of the load-balanced variant.
func fig4c(c *cfg) {
	t := benchkit.NewTable("length", "semi_antidiag", "semi_load_balanced", "braid_mult_alone", "mult_share")
	for i, n := range c.combLens {
		a := dataset.Normal(n, 1, c.seed+int64(i))
		b := dataset.Normal(n, 1, c.seed+1000+int64(i))
		basic := benchkit.Measure(c.reps, func() { combing.Antidiag(a, b, combing.Options{Branchless: true}) })
		lb := benchkit.Measure(c.reps, func() {
			combing.LoadBalanced(a, b, combing.Options{Branchless: true})
		})
		// The load-balanced variant performs two multiplications of
		// braids of order m+n; time them on representative inputs.
		rng := rand.New(rand.NewSource(c.seed + 2000 + int64(i)))
		p1, p2 := perm.Random(2*n, rng), perm.Random(2*n, rng)
		mult := benchkit.Measure(c.reps, func() {
			steadyant.Multiply(steadyant.Multiply(p1, p2), p1)
		})
		t.AddRow(n, basic, lb, mult, fmt.Sprintf("%.0f%%", 100*mult.Seconds()/lb.Seconds()))
	}
	c.emit("Figure 4c — basic vs load-balanced iterative combing (sequential)",
		"both variants close; braid multiplication is a small fraction of total time", t)
}

// itoa renders sizes compactly: exact multiples of 10³ and 10⁶ get a
// "k"/"M" suffix.
func itoa(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return digits(n/1_000_000) + "M"
	case n >= 1_000 && n%1_000 == 0:
		return digits(n/1_000) + "k"
	}
	return digits(n)
}

func digits(n int) string {
	buf := [20]byte{}
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}
