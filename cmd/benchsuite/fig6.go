package main

import (
	"fmt"

	"semilocal/internal/benchkit"
	"semilocal/internal/dataset"
	"semilocal/internal/hybrid"
)

// fig6 — sequential cost of the hybrid algorithm as a function of the
// recursion depth at which it switches to iterative combing. Depth 0 is
// pure iterative combing; deeper thresholds buy coarse-grained
// parallelism at a sequential price.
func fig6(c *cfg) {
	header := []string{"switch_depth"}
	for _, n := range c.hybLens {
		header = append(header, "len="+itoa(n), fmt.Sprintf("slowdown(len=%s)", itoa(n)))
	}
	t := benchkit.NewTable(header...)

	type series struct {
		a, b []byte
		base float64
	}
	inputs := make([]series, len(c.hybLens))
	for i, n := range c.hybLens {
		inputs[i] = series{
			a: dataset.Normal(n, 1, c.seed+int64(i)),
			b: dataset.Normal(n, 1, c.seed+700+int64(i)),
		}
	}
	for depth := 0; depth <= 6; depth++ {
		row := []interface{}{depth}
		for i := range inputs {
			in := &inputs[i]
			depth := depth
			d := benchkit.Measure(c.reps, func() {
				hybrid.Hybrid(in.a, in.b, hybrid.Options{Depth: depth})
			})
			if depth == 0 {
				in.base = d.Seconds()
			}
			row = append(row, d, fmt.Sprintf("%.2fx", d.Seconds()/in.base))
		}
		t.AddRow(row...)
	}
	c.emit("Figure 6 — hybrid switch-depth tradeoff (sequential)",
		"sequential time grows with depth; tolerable depth grows with input length", t)
}
