// Package core is the semi-local LCS facade: it dispatches between the
// kernel-producing algorithms of this repository and interprets the
// resulting kernel — a permutation of order m+n — as the implicit
// (m+n+1)×(m+n+1) LCS matrix H of Definition 3.3 of the paper, whose
// quadrants answer the four semi-local sub-problems:
//
//	string-substring:  LCS(a, b[l:r))  for all windows of b,
//	substring-string:  LCS(a[k:l), b)  for all windows of a,
//	suffix-prefix:     LCS(a[k:], b[:j]),
//	prefix-suffix:     LCS(a[:k], b[j:]).
//
// Arbitrary H entries are one dominance count over the kernel's m+n
// strands: a direct O(m+n) scan until the kernel's accumulated scan
// work pays for a wavelet tree, O(log(m+n)) through that tree after
// (Kernel.H); whole rows of window scores are extracted incrementally
// in O(1) amortized per window.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"semilocal/internal/chaos"
	"semilocal/internal/combing"
	"semilocal/internal/dominance"
	"semilocal/internal/hybrid"
	"semilocal/internal/obs"
	"semilocal/internal/perm"
	"semilocal/internal/recycle"
)

// Algorithm names a kernel-producing semi-local LCS algorithm.
type Algorithm int

const (
	// RowMajor is sequential iterative combing in row-major order
	// (Listing 1, semi_rowmajor).
	RowMajor Algorithm = iota
	// Antidiag is iterative combing over anti-diagonals with branching
	// (semi_antidiag); parallelizable.
	Antidiag
	// AntidiagBranchless replaces the conditional with bitwise selection
	// (the paper's semi_antidiag_SIMD analog); parallelizable. Inputs
	// with m+n ≤ 2¹⁵ run it on four 16-bit lanes per word
	// (combing.AntidiagSWAR), larger ones on the 32-bit loop.
	AntidiagBranchless
	// LoadBalanced computes the three anti-diagonal phases as independent
	// braids composed by multiplication (semi_load_balanced).
	LoadBalanced
	// Recursive is pure recursive combing (Listing 3).
	Recursive
	// Hybrid is recursive splitting above a depth threshold, iterative
	// combing below (Listing 6, semi_hybrid).
	Hybrid
	// GridReduction is the optimized recursion-free hybrid
	// (Listing 7, semi_hybrid_iterative).
	GridReduction
)

var algorithmNames = map[Algorithm]string{
	RowMajor:           "semi_rowmajor",
	Antidiag:           "semi_antidiag",
	AntidiagBranchless: "semi_antidiag_simd",
	LoadBalanced:       "semi_load_balanced",
	Recursive:          "semi_recursive",
	Hybrid:             "semi_hybrid",
	GridReduction:      "semi_hybrid_iterative",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every registered algorithm in a stable order.
func Algorithms() []Algorithm {
	return []Algorithm{RowMajor, Antidiag, AntidiagBranchless, LoadBalanced, Recursive, Hybrid, GridReduction}
}

// Config selects and parameterizes an algorithm.
type Config struct {
	// Algorithm to run; the zero value is RowMajor.
	Algorithm Algorithm
	// Workers enables thread-level parallelism where the algorithm
	// supports it (values ≤ 1 are sequential). Hybrid derives its
	// recursion depth from it and the input lengths, and GridReduction
	// cuts one tile per worker.
	Workers int
	// Use16 enables 16-bit strand indices in GridReduction tiles.
	Use16 bool
}

// MaxOrder is the largest kernel order m+n Solve accepts: permutation
// indices are int32, so larger inputs would silently corrupt the kernel.
const MaxOrder = 1<<31 - 1

// Solve computes the semi-local LCS kernel of a and b with the
// configured algorithm.
func Solve(a, b []byte, cfg Config) (*Kernel, error) {
	return SolveWith(a, b, cfg, nil, nil)
}

// SolveWith is Solve with the two threaded collaborators, neither of
// which Config stores (Config only names an algorithm and its
// parameters):
//
//   - rec records stage timings and work counters;
//   - inj is consulted before the solve (artificial latency, forced
//     transient errors) and after it (errors that discard finished
//     work).
//
// Each nil argument disables its collaborator at the cost of a nil
// check, so SolveWith(a, b, cfg, nil, nil) is exactly Solve.
func SolveWith(a, b []byte, cfg Config, rec *obs.Recorder, inj *chaos.Injector) (*Kernel, error) {
	if inj.Fire(chaos.PointSolveStart) == chaos.FaultError {
		return nil, chaos.Injected(chaos.PointSolveStart)
	}
	if len(a)+len(b) > MaxOrder {
		return nil, fmt.Errorf("core: input order %d exceeds the int32 kernel limit %d", len(a)+len(b), MaxOrder)
	}
	sp := rec.Start(obs.StageSolve)
	var p perm.Permutation
	switch cfg.Algorithm {
	case RowMajor:
		p = combing.RowMajorObserved(a, b, rec)
	case Antidiag:
		p = combing.Antidiag(a, b, combing.Options{Workers: cfg.Workers, Rec: rec})
	case AntidiagBranchless:
		opt := combing.Options{Workers: cfg.Workers, Branchless: true, Rec: rec}
		if combing.FitsSWAR(len(a), len(b)) {
			p = combing.AntidiagSWAR(a, b, opt)
		} else {
			p = combing.Antidiag(a, b, opt)
		}
	case LoadBalanced:
		p = combing.LoadBalanced(a, b, combing.Options{Workers: cfg.Workers, Branchless: true, Rec: rec})
	case Recursive:
		p = hybrid.Recursive(a, b, rec)
	case Hybrid:
		depth := defaultHybridDepth(len(a), len(b), cfg.Workers)
		p = hybrid.Hybrid(a, b, hybrid.Options{Depth: depth, Workers: cfg.Workers, Rec: rec})
	case GridReduction:
		p = hybrid.GridReduction(a, b, hybrid.GridOptions{Workers: cfg.Workers, Use16: cfg.Use16, Rec: rec})
	default:
		sp.End()
		return nil, fmt.Errorf("core: unknown algorithm %d", int(cfg.Algorithm))
	}
	sp.End()
	if inj.Fire(chaos.PointSolveFinish) == chaos.FaultError {
		return nil, chaos.Injected(chaos.PointSolveFinish)
	}
	return NewKernel(p, len(a), len(b)), nil
}

// Constants of the hybrid depth heuristic: the problem size below which
// Hybrid stops splitting and combs iteratively, and the depth cap.
const (
	defaultHybridSwitch   = 4096
	defaultHybridMaxDepth = 6
)

// defaultHybridDepth mirrors the paper's Figure 6 guidance: deeper
// thresholds only pay off for longer inputs, and there is no point
// splitting beyond the worker count.
func defaultHybridDepth(m, n, workers int) int {
	depth := 0
	for size := min(m, n); size > defaultHybridSwitch; size /= 2 {
		depth++
		if depth >= defaultHybridMaxDepth {
			break
		}
	}
	if workers > 1 {
		lg := 0
		for 1<<lg < workers {
			lg++
		}
		if lg > depth {
			depth = lg
		}
	}
	return depth
}

// Kernel is a semi-local LCS kernel: the permutation P(a,b) together
// with the string lengths it was computed for.
type Kernel struct {
	p     perm.Permutation
	m, n  int
	score int // LCS(a, b), counted once by NewKernel

	// scanned sums the strands H has counted directly; once it would
	// exceed the tree's build cost, H builds the tree through domOnce
	// and publishes it in dom.
	scanned atomic.Int64
	domOnce sync.Once
	dom     atomic.Pointer[dominance.Tree]

	invOnce sync.Once
	inv     []int32 // cached column→row view; kernels are immutable
}

// NewKernel wraps a kernel permutation. The permutation order must be
// m+n. It counts the global score once, in O(n), so Score is O(1).
func NewKernel(p perm.Permutation, m, n int) *Kernel {
	if p.Size() != m+n {
		panic(fmt.Sprintf("core: kernel order %d does not match m+n = %d", p.Size(), m+n))
	}
	return &Kernel{p: p, m: m, n: n, score: combing.ScoreFromKernel(p, m, n)}
}

// Permutation exposes the underlying kernel permutation.
func (k *Kernel) Permutation() perm.Permutation { return k.p }

// M returns len(a); N returns len(b).
func (k *Kernel) M() int { return k.m }
func (k *Kernel) N() int { return k.n }

func (k *Kernel) tree() *dominance.Tree {
	k.domOnce.Do(func() { k.dom.Store(dominance.New(k.p.RowToCol())) })
	return k.dom.Load()
}

// colToRow returns the kernel's column→row view, built once on first
// use: window sweeps need the inverse, and re-deriving it per sweep
// would put an allocation on the BestWindow steady-state path.
func (k *Kernel) colToRow() []int32 {
	k.invOnce.Do(func() { k.inv = k.p.ColToRow() })
	return k.inv
}

// Prepare forces construction of the dominance-counting structure that
// arbitrary H queries use, so that the O((m+n) log(m+n)) build cost is
// paid once up front rather than by the query that crosses the scan
// budget (see H). It returns k for chaining and is safe to call
// concurrently with queries.
func (k *Kernel) Prepare() *Kernel {
	k.tree()
	return k
}

// Prepared reports whether the dominance tree has been built, by
// Prepare or by H once its scan budget ran out.
func (k *Kernel) Prepared() bool { return k.dom.Load() != nil }

// MemoryBytes is the kernel's resident-size reservation in bytes: the
// permutation, the column→row view window sweeps cache, and the
// dominance tree, whether or not the view and the tree exist yet. It is
// O(1) arithmetic and never builds anything, so a cache that charges it
// on insert and credits it on evict stays exact however the kernel is
// queried in between.
func (k *Kernel) MemoryBytes() int {
	return 8*k.p.Size() + dominance.SizeBytes(k.p.Size())
}

// H returns the LCS matrix entry H(i,j) of Definition 3.3 for
// i, j ∈ [0, m+n]: the LCS of a against the padded-b window
// bPad[i : j+m), computed as j + m - i - #{(s,e) ∈ P : s ≥ i, e < j}.
//
// The count is a ski rental. Until the dominance tree exists, H counts
// directly over the m+n-i strands starting at or after i: O(m+n), no
// allocation. Once the scan work of this kernel's queries would exceed
// the tree's build cost (m+n)·⌈log₂(m+n)⌉, the crossing query builds
// the tree (once, shared by all goroutines), and every later query
// costs O(log(m+n)). A kernel queried a few times never pays for the
// tree; one queried often pays at most about twice what an eager build
// would have.
func (k *Kernel) H(i, j int) int {
	if i < 0 || j < 0 || i > k.m+k.n || j > k.m+k.n {
		panic(fmt.Sprintf("core: H(%d,%d) out of range [0,%d]", i, j, k.m+k.n))
	}
	return j + k.m - i - k.countDominated(i, j)
}

// countDominated returns #{s ≥ i : rowToCol[s] < j}, by scan or by
// tree as H describes.
func (k *Kernel) countDominated(i, j int) int {
	if t := k.dom.Load(); t != nil {
		return t.CountDominated(i, j)
	}
	r2c := k.p.RowToCol()
	n := len(r2c)
	if k.scanned.Add(int64(n-i)) > int64(n)*int64(dominance.Levels(n)) {
		return k.tree().CountDominated(i, j)
	}
	count := 0
	for _, c := range r2c[i:] {
		if int(c) < j {
			count++
		}
	}
	return count
}

// Score returns the global LCS score LCS(a, b), which equals
// StringSubstring(0, n), in O(1).
func (k *Kernel) Score() int { return k.score }

// StringSubstring returns LCS(a, b[l:r)).
func (k *Kernel) StringSubstring(l, r int) int {
	if l < 0 || r > k.n || l > r {
		panic(fmt.Sprintf("core: StringSubstring(%d,%d) out of range for n=%d", l, r, k.n))
	}
	return k.H(k.m+l, r)
}

// SubstringString returns LCS(a[u:v), b).
func (k *Kernel) SubstringString(u, v int) int {
	if u < 0 || v > k.m || u > v {
		panic(fmt.Sprintf("core: SubstringString(%d,%d) out of range for m=%d", u, v, k.m))
	}
	// The window ?^(m-u) b ?^(v-m+n... ): wildcards absorb a's prefix
	// a[:u] and suffix a[v:], leaving LCS(a[u:v), b).
	return k.H(k.m-u, k.n+k.m-v) - u - (k.m - v)
}

// SuffixPrefix returns LCS(a[u:], b[:j]).
func (k *Kernel) SuffixPrefix(u, j int) int {
	if u < 0 || u > k.m || j < 0 || j > k.n {
		panic(fmt.Sprintf("core: SuffixPrefix(%d,%d) out of range", u, j))
	}
	return k.H(k.m-u, j) - u
}

// PrefixSuffix returns LCS(a[:v), b[j:]).
func (k *Kernel) PrefixSuffix(v, j int) int {
	if v < 0 || v > k.m || j < 0 || j > k.n {
		panic(fmt.Sprintf("core: PrefixSuffix(%d,%d) out of range", v, j))
	}
	// The window b[j:] ?^(m-v): trailing wildcards absorb a's suffix a[v:].
	return k.H(k.m+j, k.m+k.n-v) - (k.m - v)
}

// WindowScores returns LCS(a, b[l:l+width)) for every l in
// [0, n-width], in O(m+n) total time using the kernel directly (no
// dominance structure needed): the dominated-count is maintained
// incrementally as the window slides.
func (k *Kernel) WindowScores(width int) []int {
	return k.WindowScoresInto(width, nil)
}

// WindowScoresInto is WindowScores writing into out when its capacity
// suffices (n-width+1 entries), allocating only otherwise. The returned
// slice is the result; out's previous contents are ignored. Serving
// paths that discard the scores after a reduction (BestWindow) route
// recycled scratch through here to stay allocation-free.
func (k *Kernel) WindowScoresInto(width int, out []int) []int {
	if width < 0 || width > k.n {
		panic(fmt.Sprintf("core: window width %d out of range [0,%d]", width, k.n))
	}
	r2c := k.p.RowToCol()
	c2r := k.colToRow()
	// count(l) = #{(s,e) : s ≥ m+l, e < l+width}.
	count := 0
	for s := k.m; s < k.m+k.n; s++ {
		if int(r2c[s]) < width {
			count++
		}
	}
	if cap(out) >= k.n-width+1 {
		out = out[:k.n-width+1]
	} else {
		out = make([]int, k.n-width+1)
	}
	out[0] = width - count
	for l := 1; l+width <= k.n; l++ {
		// Window moves from [l-1, l-1+width) to [l, l+width).
		// Strand starting at s = m+l-1 leaves the start range.
		if int(r2c[k.m+l-1]) < l-1+width {
			count--
		}
		// End l-1+width enters the end range.
		if int(c2r[l-1+width]) >= k.m+l {
			count++
		}
		out[l] = width - count
	}
	return out
}

// windowScratch recycles the sweep buffers BestWindow reduces over and
// discards. Kernels are queried from any goroutine, so this is the
// synchronized recycler flavor; the alloc-parity guards pin that the
// steady-state path stays allocation-free through it.
var windowScratch recycle.Shared[int]

// BestWindow returns the left edge and score of the width-wide window
// of b with the highest LCS against a (the leftmost on ties). It panics
// if width is out of [0, n].
func (k *Kernel) BestWindow(width int) (l, score int) {
	var scratch []int
	if width >= 0 && width <= k.n {
		scratch = windowScratch.Get(k.n - width + 1)
	}
	scores := k.WindowScoresInto(width, scratch)
	best, at := -1, 0
	for i, sc := range scores {
		if sc > best {
			best, at = sc, i
		}
	}
	windowScratch.Put(scores)
	return at, best
}
