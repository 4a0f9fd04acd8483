package oracle

import (
	"fmt"

	"semilocal/internal/bitlcs"
	"semilocal/internal/core"
	"semilocal/internal/editdist"
	"semilocal/internal/hybrid"
	"semilocal/internal/perm"
)

// Config is one row of the differential matrix: the label a mismatch is
// reported under, and the solve that produces the row's kernel.
type Config struct {
	Name  string
	Solve func(a, b []byte) (perm.Permutation, error)
}

// Configs enumerates every core.Algorithm across the worker counts,
// recursion depths, tile counts and index widths that select different
// code paths, including the deliberately out-of-range worker values that
// core.Config documents as sequential. core derives Hybrid's depth and
// GridReduction's tile count from the workers, so the depth and tile
// sweeps call hybrid.Hybrid and hybrid.GridReduction directly; core's own
// GridReduction row is the one-tile-per-worker case. This is the
// configuration matrix the differential driver pins to the oracle.
func Configs() []Config {
	var cfgs []Config
	viaCore := func(cfg core.Config) {
		cfgs = append(cfgs, Config{fmt.Sprintf("%+v", cfg), func(a, b []byte) (perm.Permutation, error) {
			k, err := core.Solve(a, b, cfg)
			if err != nil {
				return perm.Permutation{}, err
			}
			return k.Permutation(), nil
		}})
	}
	viaCore(core.Config{Algorithm: core.RowMajor})
	viaCore(core.Config{Algorithm: core.Recursive})
	for _, workers := range []int{-1, 0, 1, 2, 4} {
		viaCore(core.Config{Algorithm: core.Antidiag, Workers: workers})
		viaCore(core.Config{Algorithm: core.AntidiagBranchless, Workers: workers})
		viaCore(core.Config{Algorithm: core.LoadBalanced, Workers: workers})
	}
	for _, workers := range []int{0, 2, 3} {
		viaCore(core.Config{Algorithm: core.Hybrid, Workers: workers})
		for _, depth := range []int{0, 1, 2, 4} {
			opt := hybrid.Options{Depth: depth, Workers: workers}
			cfgs = append(cfgs, Config{fmt.Sprintf("hybrid.Options%+v", opt), func(a, b []byte) (perm.Permutation, error) {
				return hybrid.Hybrid(a, b, opt), nil
			}})
		}
		for _, use16 := range []bool{false, true} {
			viaCore(core.Config{Algorithm: core.GridReduction, Workers: workers, Use16: use16})
			for _, tiles := range []int{1, 3, 7} {
				opt := hybrid.GridOptions{Workers: workers, Tiles: tiles, Use16: use16}
				cfgs = append(cfgs, Config{fmt.Sprintf("hybrid.GridOptions%+v", opt), func(a, b []byte) (perm.Permutation, error) {
					return hybrid.GridReduction(a, b, opt), nil
				}})
			}
		}
	}
	return cfgs
}

// CheckAll is the differential driver: it solves (a, b) with every
// configuration of every registered algorithm, requires all kernels to
// be identical, validates the reference kernel exhaustively against the
// quadratic oracle, checks the flip theorem metamorphically, and pins
// the bit-parallel scorers and the edit-distance reduction to the oracle
// on the same inputs. Any discrepancy is reported with the configuration
// that produced it.
func CheckAll(a, b []byte) error {
	ref, err := core.Solve(a, b, core.Config{Algorithm: core.RowMajor})
	if err != nil {
		return fmt.Errorf("oracle: reference solve: %w", err)
	}
	if err := CheckKernel(ref, a, b); err != nil {
		return fmt.Errorf("reference kernel (%v): %w", core.RowMajor, err)
	}
	for _, cfg := range Configs() {
		p, err := cfg.Solve(a, b)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		if !p.Equal(ref.Permutation()) {
			return fmt.Errorf("%s: kernel differs from reference (m=%d n=%d)", cfg.Name, len(a), len(b))
		}
	}
	flipped, err := core.Solve(b, a, core.Config{Algorithm: core.AntidiagBranchless})
	if err != nil {
		return fmt.Errorf("oracle: flipped solve: %w", err)
	}
	if err := CheckFlip(ref.Permutation(), flipped.Permutation()); err != nil {
		return err
	}
	if err := checkBitParallel(a, b); err != nil {
		return err
	}
	return checkEditDistance(a, b)
}

// checkBitParallel pins the binary bit-parallel scorers (on the low-bit
// projection of the inputs) and the general-alphabet bit-plane scorer
// (on the raw inputs) to the oracle DP.
func checkBitParallel(a, b []byte) error {
	a01 := projectBinary(a)
	b01 := projectBinary(b)
	wantBin := Score(a01, b01)
	for _, v := range bitlcs.Versions() {
		for _, workers := range []int{0, 2} {
			if got := bitlcs.Score(a01, b01, v, bitlcs.Options{Workers: workers, MinBlocks: 1}); got != wantBin {
				return fmt.Errorf("bitlcs.Score(%v, workers=%d) = %d, want %d", v, workers, got, wantBin)
			}
		}
	}
	if got := bitlcs.CIPR(a01, b01); got != wantBin {
		return fmt.Errorf("bitlcs.CIPR = %d, want %d", got, wantBin)
	}
	want := Score(a, b)
	for _, workers := range []int{0, 2} {
		if got := bitlcs.ScoreAlphabet(a, b, bitlcs.Options{Workers: workers, MinBlocks: 1}); got != want {
			return fmt.Errorf("bitlcs.ScoreAlphabet(workers=%d) = %d, want %d", workers, got, want)
		}
	}
	return nil
}

// checkEditDistance pins the blow-up reduction to the oracle Levenshtein
// DP: the global distance, a few window widths, and sampled substring
// windows. Inputs are projected away from the reserved sentinel byte so
// arbitrary (e.g. fuzzer-chosen) bytes remain usable.
func checkEditDistance(a, b []byte) error {
	a = dropSentinel(a)
	b = dropSentinel(b)
	k, err := editdist.Solve(a, b, core.Config{Algorithm: core.GridReduction, Workers: 2})
	if err != nil {
		return fmt.Errorf("editdist.Solve: %w", err)
	}
	if got, want := k.Distance(), EditDistance(a, b); got != want {
		return fmt.Errorf("editdist.Distance = %d, want %d", got, want)
	}
	n := len(b)
	for _, width := range windowWidths(n) {
		ds := k.WindowDistances(width)
		for l, got := range ds {
			if want := EditDistance(a, b[l:l+width]); got != want {
				return fmt.Errorf("editdist.WindowDistances(%d)[%d] = %d, want %d", width, l, got, want)
			}
		}
	}
	s := sampleStride(n)
	for l := 0; l <= n; l += s {
		for r := l; r <= n; r += s {
			if got, want := k.SubstringDistance(l, r), EditDistance(a, b[l:r]); got != want {
				return fmt.Errorf("editdist.SubstringDistance(%d,%d) = %d, want %d", l, r, got, want)
			}
		}
	}
	return nil
}

func projectBinary(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[i] = c & 1
	}
	return out
}

func dropSentinel(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		if c == editdist.Sentinel {
			c = 0xfe
		}
		out[i] = c
	}
	return out
}
