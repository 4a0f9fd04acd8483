// Package bitlcs implements the paper's novel bit-parallel LCS algorithm
// for binary alphabets (Listing 8 and §4.4), which embeds the iterative
// combing of package combing at one bit per strand, plus the classical
// bit-vector LCS algorithm of Crochemore et al. as a baseline.
//
// The combing-based algorithm stores each strand as a single bit
// (horizontal strands start as ones, vertical as zeros; a horizontal bit
// smaller than the vertical bit it meets marks a previously crossed
// pair). The grid is processed in w×w blocks along block anti-diagonals;
// inside a block, the 2w-1 bit anti-diagonals are updated with shifts
// and Boolean operations only — no integer addition, hence no carry
// chains, and no precomputed tables. The LCS score is recovered as
// m − popcount(h): every horizontal strand that reaches the right edge
// still holding a one never crossed a vertical strand "sticky" fashion,
// and each such survivor witnesses one unmatched row.
//
// Three versions reproduce the paper's Figure 9 ablation:
//
//	Old        — Listing 8 with every bit anti-diagonal re-reading and
//	             re-writing the strand words in memory,
//	MemOpt     — strand words loaded into locals once per block
//	             (bit_new_1; fewer memory writes and, in parallel runs,
//	             far less false sharing),
//	FormulaOpt — MemOpt plus the optimized Boolean formulas that update
//	             v by masked selection and h by an XOR patch, and the
//	             complemented-a trick (bit_new_2; 18 → 12 operations).
//	Fused      — FormulaOpt with the block loops fused along block rows
//	             (bit_new_3): a sequential row-major block schedule keeps
//	             the horizontal strand word and both pattern words in
//	             registers across an entire row of blocks, loading and
//	             storing each vertical word exactly once — the same
//	             memory-pass reduction the bit_new_2 rewrite applied
//	             inside a block, applied across blocks. Parallel runs
//	             need the anti-diagonal schedule, so Workers > 1 falls
//	             back to FormulaOpt's per-block processing.
package bitlcs

import (
	"fmt"
	"math/bits"

	"semilocal/internal/obs"
	"semilocal/internal/parallel"
)

// W is the machine word width in bits used by the block algorithms.
const W = 64

// Version selects one of the paper's bit-parallel implementations.
type Version int

const (
	// Old is the unoptimized Listing 8 (the paper's bit_old).
	Old Version = iota
	// MemOpt adds the memory-access optimization (bit_new_1).
	MemOpt
	// FormulaOpt additionally uses the optimized Boolean formula and
	// stores the complement of a (bit_new_2).
	FormulaOpt
	// Fused additionally fuses the block loops along block rows when
	// running sequentially (bit_new_3).
	Fused
)

func (v Version) String() string {
	switch v {
	case Old:
		return "bit_old"
	case MemOpt:
		return "bit_new_1"
	case FormulaOpt:
		return "bit_new_2"
	case Fused:
		return "bit_new_3"
	}
	return fmt.Sprintf("Version(%d)", int(v))
}

// Versions lists every implementation in a stable order; the
// differential suites iterate it.
func Versions() []Version { return []Version{Old, MemOpt, FormulaOpt, Fused} }

// Options configure parallel execution.
type Options struct {
	// Workers processes each block anti-diagonal with this many
	// goroutines (≤ 1 sequential).
	Workers int
	// MinBlocks is the minimum number of blocks on a diagonal worth
	// splitting across workers; 0 means a sensible default.
	MinBlocks int
	// Pool optionally supplies an existing worker pool.
	Pool *parallel.Pool
	// Rec receives the block-loop timing and block counter; nil (the
	// default) disables instrumentation at zero cost.
	Rec *obs.Recorder
}

func (o Options) minBlocks() int {
	if o.MinBlocks > 0 {
		return o.MinBlocks
	}
	return 4
}

// Score computes LCS(a, b) for strings over the binary alphabet {0, 1}
// using the selected bit-parallel version. It panics if the input
// contains other byte values.
func Score(a, b []byte, v Version, opt Options) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) > len(b) {
		a, b = b, a // the block schedule assumes m ≤ n; LCS is symmetric
	}
	st := newBitState(a, b)
	var process func(I, J int)
	switch v {
	case Old:
		process = st.blockOld
	case MemOpt:
		process = st.blockMemOpt
	case FormulaOpt:
		process = st.blockFormulaOpt
	case Fused:
		// Row fusion needs the sequential row-major schedule; parallel
		// runs use FormulaOpt's block body on the anti-diagonal
		// schedule (bit-identical, just unfused).
		process = st.blockFormulaOpt
	default:
		panic(fmt.Sprintf("bitlcs: unknown version %d", int(v)))
	}

	sp := opt.Rec.Start(obs.StageBitBlocks)
	if v == Fused && opt.Workers <= 1 {
		st.runFused()
	} else {
		runBlocks(len(st.h), len(st.v), process, opt)
	}
	sp.End()
	opt.Rec.Add(obs.CounterBitBlocks, int64(len(st.h))*int64(len(st.v)))
	return len(a) - popcount(st.h)
}

// runBlocks drives the three block-level anti-diagonal phases — exactly
// the schedule of the strand-index algorithm (Listing 4), but over
// words of strands. Blocks on one block anti-diagonal are independent
// and are split across opt.Workers goroutines with a barrier between
// diagonals. mb must not exceed nb.
func runBlocks(mb, nb int, process func(I, J int), opt Options) {
	runDiag := func(count, hBase, vBase int) {
		for t := 0; t < count; t++ {
			process(hBase+t, vBase+t)
		}
	}
	if opt.Workers > 1 {
		pool := opt.Pool
		if pool == nil {
			p := parallel.NewPool(opt.Workers)
			defer p.Close()
			pool = p
		}
		minBlocks := opt.minBlocks()
		runDiag = func(count, hBase, vBase int) {
			if count < minBlocks {
				for t := 0; t < count; t++ {
					process(hBase+t, vBase+t)
				}
				return
			}
			pool.For(0, count, func(lo, hi int) {
				for t := lo; t < hi; t++ {
					process(hBase+t, vBase+t)
				}
			})
		}
	}
	for d := 0; d < mb-1; d++ {
		runDiag(d+1, mb-1-d, 0)
	}
	for k := 0; k <= nb-mb; k++ {
		runDiag(mb, 0, k)
	}
	for q := 1; q < mb; q++ {
		runDiag(mb-q, 0, nb-mb+q)
	}
}

func popcount(words []uint64) int {
	ones := 0
	for _, w := range words {
		ones += bits.OnesCount64(w)
	}
	return ones
}

// bitState is the packed representation: horizontal words follow the
// reversed-row order of iterative combing (bit k of h[I] is the strand on
// horizontal track I·W+k, i.e. row m-1-(I·W+k)), vertical words follow
// column order. a is packed reversed alongside h; b alongside v. hm/vm
// mask the valid strand positions of ragged final words.
type bitState struct {
	h, v   []uint64
	a, na  []uint64 // a reversed; na is its complement (FormulaOpt)
	b      []uint64
	hm, vm []uint64
}

func newBitState(a, b []byte) *bitState {
	m, n := len(a), len(b)
	mb, nb := (m+W-1)/W, (n+W-1)/W
	st := &bitState{
		h:  make([]uint64, mb),
		v:  make([]uint64, nb),
		a:  make([]uint64, mb),
		na: make([]uint64, mb),
		b:  make([]uint64, nb),
		hm: make([]uint64, mb),
		vm: make([]uint64, nb),
	}
	for p := 0; p < m; p++ {
		c := a[m-1-p] // reversed, as a_reverse in Listing 4
		if c > 1 {
			panic(fmt.Sprintf("bitlcs: non-binary byte %d in a", c))
		}
		st.a[p/W] |= uint64(c) << (p % W)
		st.hm[p/W] |= 1 << (p % W)
	}
	for q := 0; q < n; q++ {
		c := b[q]
		if c > 1 {
			panic(fmt.Sprintf("bitlcs: non-binary byte %d in b", c))
		}
		st.b[q/W] |= uint64(c) << (q % W)
		st.vm[q/W] |= 1 << (q % W)
	}
	for i := range st.na {
		st.na[i] = ^st.a[i]
	}
	// All horizontal strands start as ones (on valid positions), all
	// vertical strands as zeros.
	copy(st.h, st.hm)
	return st
}
