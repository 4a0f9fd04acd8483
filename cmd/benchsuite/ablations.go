package main

import (
	"fmt"
	"math/rand"

	"semilocal/internal/benchkit"
	"semilocal/internal/bitlcs"
	"semilocal/internal/combing"
	"semilocal/internal/dataset"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

func init() {
	figures["ablate16"] = ablate16
	figures["ablatebase"] = ablateBase
	figures["ablatechunk"] = ablateChunk
}

// ablate16 — DESIGN.md ablation: 16-bit vs 32-bit strand indices in
// iterative combing (the paper's §4.3 reduced-precision optimization,
// which halves the strand arrays' cache footprint). The antidiag_swar
// column is an extension beyond the paper: the same 16-bit indices run
// four lanes per 64-bit word (combing.AntidiagSWAR), which needs
// m+n ≤ 2¹⁵ and reads "-" on longer rows.
func ablate16(c *cfg) {
	t := benchkit.NewTable("length", "antidiag_32bit", "antidiag_16bit", "speedup", "antidiag_swar", "swar_speedup")
	for i, n := range c.combLens {
		if !combing.Fits16(n, n) {
			continue
		}
		a := dataset.Normal(n, 1, c.seed+int64(i))
		b := dataset.Normal(n, 1, c.seed+300+int64(i))
		t32 := benchkit.Measure(c.reps, func() { combing.Antidiag(a, b, combing.Options{Branchless: true}) })
		t16 := benchkit.Measure(c.reps, func() { combing.Antidiag16(a, b, combing.Options{}) })
		var swar, swarSpeedup interface{} = "-", "-"
		if combing.FitsSWAR(n, n) {
			d := benchkit.Measure(c.reps, func() { combing.AntidiagSWAR(a, b, combing.Options{}) })
			swar, swarSpeedup = d, benchkit.Ratio(t32, d)
		}
		t.AddRow(n, t32, t16, benchkit.Ratio(t32, t16), swar, swarSpeedup)
	}
	c.emit("Ablation — 16-bit vs 32-bit strand indices (sequential branchless combing)",
		"16-bit indices halve memory traffic; the paper projects up to 2x from reduced precision; "+
			"four 16-bit lanes per word (antidiag_swar, extension) add subword parallelism", t)
}

// ablateBase — precalc recursion cut-off order: how much of the precalc
// win comes from each level of the lookup base.
func ablateBase(c *cfg) {
	n := c.permSizes[len(c.permSizes)-1]
	rng := rand.New(rand.NewSource(c.seed))
	p, q := perm.Random(n, rng), perm.Random(n, rng)
	base1 := benchkit.Measure(c.reps, func() { steadyant.MultiplyWithBase(p, q, 1) })
	t := benchkit.NewTable("lookup_base_order", "time", "speedup_vs_base1")
	t.AddRow(1, base1, benchkit.Ratio(base1, base1))
	for base := 2; base <= steadyant.MaxBase; base++ {
		base := base
		d := benchkit.Measure(c.reps, func() { steadyant.MultiplyWithBase(p, q, base) })
		t.AddRow(base, d, benchkit.Ratio(base1, d))
	}
	c.emit(fmt.Sprintf("Ablation — precalc lookup base order (steady ant, size %s)", itoa(n)),
		"each extra level of table lookup trims one recursion level; gains taper", t)
}

// ablateChunk — minimum per-diagonal chunk size for parallel combing:
// the tradeoff between barrier/handoff overhead and parallel coverage.
func ablateChunk(c *cfg) {
	n := c.threadLen
	a := dataset.Normal(n, 1, c.seed)
	b := dataset.Normal(n, 1, c.seed+1)
	w := c.maxThreads
	t := benchkit.NewTable("min_chunk", "time_parallel_antidiag")
	for _, chunk := range []int{64, 256, 1024, 4096, 16384} {
		chunk := chunk
		d := benchkit.Measure(c.reps, func() {
			combing.Antidiag(a, b, combing.Options{Workers: w, Branchless: true, MinChunk: chunk})
		})
		t.AddRow(chunk, d)
	}
	c.emit(fmt.Sprintf("Ablation — parallel combing minimum chunk (length %s, %d workers)", itoa(n), w),
		"small chunks pay per-diagonal handoff; huge chunks serialize short diagonals", t)
}

func init() {
	figures["ablateselect"] = ablateSelect
}

// ablateSelect — §4.1's two branch-elimination strategies for the
// combing inner loop: conditional branch vs arithmetic select
// (h·(1-p)+p·v) vs bitwise masks.
func ablateSelect(c *cfg) {
	t := benchkit.NewTable("length", "branching", "arithmetic_select", "minmax_select", "bitwise_select",
		"bitwise_vs_branching", "bitwise_vs_arithmetic")
	for i, n := range c.combLens {
		a := dataset.Normal(n, 1, c.seed+int64(i))
		b := dataset.Normal(n, 1, c.seed+400+int64(i))
		br := benchkit.Measure(c.reps, func() { combing.Antidiag(a, b, combing.Options{}) })
		ar := benchkit.Measure(c.reps, func() {
			combing.Antidiag(a, b, combing.Options{Branchless: true, ArithmeticSelect: true})
		})
		mm := benchkit.Measure(c.reps, func() {
			combing.Antidiag(a, b, combing.Options{Branchless: true, MinMaxSelect: true})
		})
		bw := benchkit.Measure(c.reps, func() { combing.Antidiag(a, b, combing.Options{Branchless: true}) })
		t.AddRow(n, br, ar, mm, bw, benchkit.Ratio(br, bw), benchkit.Ratio(ar, bw))
	}
	c.emit("Ablation — branch elimination strategy in the combing inner loop",
		"paper §4.1: bitwise masks replace multiplications with cheaper Boolean instructions", t)
}

func init() {
	figures["extalphabet"] = extAlphabet
}

// extAlphabet — extension experiment (the paper's future work §6):
// the bit-plane generalization of the bit-parallel algorithm on larger
// alphabets, against the classical CIPR bit-vector baseline and
// word-level combing.
func extAlphabet(c *cfg) {
	t := benchkit.NewTable("alphabet", "length", "bitplane_combing", "cipr_bitvector", "semi_antidiag_simd",
		"bitplane_vs_combing")
	n := c.bin9eLen
	for _, sigma := range []int{2, 4, 20, 256} {
		a := dataset.Uniform(n, sigma, c.seed)
		b := dataset.Uniform(n, sigma, c.seed+1)
		bp := benchkit.Measure(c.reps, func() { bitlcs.ScoreAlphabet(a, b, bitlcs.Options{}) })
		ci := benchkit.Measure(c.reps, func() { bitlcs.CIPR(a, b) })
		cm := benchkit.Measure(c.reps, func() { combing.Antidiag(a, b, combing.Options{Branchless: true}) })
		t.AddRow(sigma, n, bp, ci, cm, benchkit.Ratio(cm, bp))
	}
	c.emit(fmt.Sprintf("Extension — bit-plane alphabet generalization (length %s)", itoa(n)),
		"cost grows only with ceil(log2 sigma) in the match computation; stays far ahead of combing", t)
}
