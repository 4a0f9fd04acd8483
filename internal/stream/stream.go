// Package stream maintains the semi-local LCS kernel of a growing —
// and optionally sliding — text b against a fixed pattern a, without
// ever recombing the whole window.
//
// The kernel P(a,b) is compositional: the kernels of adjacent chunks
// of b multiply under the steady ant (Theorem 3.4 of the paper, flipped
// to the b axis via Theorem 3.5) into the kernel of their
// concatenation. A Session exploits this by combing each arriving
// chunk into a leaf kernel P(a, chunk) — an O(m·chunk) solve — and
// maintaining a spine of composed runs of leaves with geometrically
// decreasing leaf counts (every node covers at least twice as many
// leaves as its successor, the skew binary counter invariant). An
// append pushes a one-leaf node and merges the tail while the
// invariant is violated: amortized at most one merge per append, and
// the spine depth stays O(log leaves). The full window kernel is then
// refolded over the ≤ log₂(leaves)+1 spine nodes and published, so an
// append costs one leaf comb plus O(log(n/chunk)) compositions
// amortized — never a from-scratch O(mn) recomb. A window slide drops
// the oldest leaves, rebuilds the one straddling spine node from its
// surviving leaf kernels, and re-normalizes the front of the spine.
//
// Published kernels are immutable generations behind an atomic
// pointer: queries are lock-free and may run concurrently with
// appends, always observing a complete, consistent window. Mutations
// (Append, Slide) are serialized by a mutex. Compositions run in a
// retained arena workspace and recycle spine buffers through the
// shared recycler (internal/recycle), so steady-state merges allocate
// nothing (the alloc guards pin this).
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/perm"
	"semilocal/internal/recycle"
)

// Config configures a Session. The zero value is usable: branchless
// anti-diagonal leaf combing, no instrumentation, no fault injection.
type Config struct {
	// Solve is the configuration for leaf chunk solves; nil selects
	// branchless anti-diagonal combing, the paper's fastest sequential
	// kernel (chunks are small relative to the window, so intra-solve
	// parallelism rarely pays).
	Solve *core.Config
	// Obs, when non-nil, records StageStreamAppend/StageStreamCompose
	// spans, the appends_total/compositions_total counters, and the
	// leaf solves' own stages. nil disables instrumentation entirely.
	Obs *obs.Recorder
	// Chaos, when non-nil, is consulted at the stream injection point
	// on entry to every mutation. nil disables injection.
	Chaos *chaos.Injector
	// Tuning supplies machine-calibrated solver parameters for the leaf
	// chunk solves; nil runs the built-in defaults. Tuning never changes
	// leaf kernels, so sessions with different tunings publish identical
	// generations.
	Tuning *core.Tuning
}

// DefaultSolveConfig is the leaf solve configuration used when
// Config.Solve is nil.
func DefaultSolveConfig() core.Config {
	return core.Config{Algorithm: core.AntidiagBranchless}
}

// State is one published kernel generation: an immutable snapshot of
// the session at some point in its mutation history.
type State struct {
	// Gen increases by one per effective mutation (empty appends and
	// zero slides publish nothing).
	Gen uint64
	// Kernel is the semi-local kernel P(a, window). Its dominance
	// structure builds lazily on the first H-query (or via Prepare);
	// the kernel itself is complete and immutable.
	Kernel *core.Kernel
	// Window is the current window length in bytes.
	Window int
	// Leaves is the number of chunks the window consists of.
	Leaves int
}

// leaf is one appended chunk's kernel. Leaf kernels are retained for
// the window's lifetime: a slide that cuts through a spine node
// rebuilds the node from its surviving leaves.
type leaf struct {
	kern []int32 // row→column of P(a, chunk), order m+n
	n    int     // chunk length in bytes
}

// node is one spine entry: the kernel of the contiguous leaf run
// [lo, hi) in absolute leaf indices.
type node struct {
	kern  []int32
	lo    int
	hi    int
	bytes int  // window bytes covered by the run
	owned bool // kern is recyclable (not aliased by a leaf or a published generation)
}

func (n node) leaves() int { return n.hi - n.lo }

// Session maintains the kernel of a fixed pattern a against a chunked,
// sliding window of text. Append and Slide may be called from any
// goroutine (they serialize on an internal mutex); Current and the
// other read accessors are lock-free and safe concurrently with
// mutations.
type Session struct {
	a   []byte
	cfg core.Config
	rec *obs.Recorder
	inj *chaos.Injector
	tn  *core.Tuning

	mu        sync.Mutex
	window    int    // bytes across all leaves
	leaves    []leaf // the current window's chunks, oldest first
	firstLeaf int    // absolute index of leaves[0]
	spine     []node // composed leaf runs, oldest first, leaf counts ≥2× decreasing
	pool      recycle.Pool[int32]
	comp      composer
	gen       uint64
	emptyK    *core.Kernel // P(a, ε), reused by every empty-window generation

	comps atomic.Int64
	cur   atomic.Pointer[State]
}

// New opens a streaming session for pattern a. The pattern is copied;
// the initial generation is the empty window.
func New(a []byte, cfg Config) (*Session, error) {
	solve := DefaultSolveConfig()
	if cfg.Solve != nil {
		solve = *cfg.Solve
	}
	// Probe the configuration with an empty solve so that a bad
	// algorithm fails here, not on the first append.
	if _, err := core.Solve(nil, nil, solve); err != nil {
		return nil, fmt.Errorf("stream: invalid solve config: %w", err)
	}
	if len(a) > core.MaxOrder {
		return nil, fmt.Errorf("stream: pattern length %d exceeds the int32 kernel limit %d", len(a), core.MaxOrder)
	}
	s := &Session{
		a:   append([]byte(nil), a...),
		cfg: solve,
		rec: cfg.Obs,
		inj: cfg.Chaos,
		tn:  cfg.Tuning,
	}
	s.emptyK = core.NewKernel(perm.Identity(len(a)), len(a), 0)
	s.cur.Store(&State{Kernel: s.emptyK})
	return s, nil
}

// M returns the pattern length.
func (s *Session) M() int { return len(s.a) }

// Pattern returns a copy of the pattern.
func (s *Session) Pattern() []byte { return append([]byte(nil), s.a...) }

// Current returns the latest published generation. It never blocks,
// even while a mutation is in progress.
func (s *Session) Current() State { return *s.cur.Load() }

// Kernel returns the latest published window kernel.
func (s *Session) Kernel() *core.Kernel { return s.cur.Load().Kernel }

// Generation returns the latest published generation number.
func (s *Session) Generation() uint64 { return s.cur.Load().Gen }

// Window returns the published window length in bytes.
func (s *Session) Window() int { return s.cur.Load().Window }

// Leaves returns the published number of chunks in the window.
func (s *Session) Leaves() int { return s.cur.Load().Leaves }

// Compositions returns the total number of steady-ant compositions the
// session has performed (spine merges, publish folds, slide rebuilds).
// The differential suite bounds this by 2·log₂(leaves) amortized per
// append.
func (s *Session) Compositions() int64 { return s.comps.Load() }

// fault consults the chaos stream point. Sessions and groups call it
// before any state mutation, so an injected error leaves them on their
// previous generation and retrying the same mutation is meaningful.
func fault(inj *chaos.Injector) error {
	if d := inj.At(chaos.PointStream); d.Fault != chaos.FaultNone {
		switch d.Fault {
		case chaos.FaultLatency:
			time.Sleep(d.Latency)
		case chaos.FaultError:
			return chaos.Injected(chaos.PointStream)
		}
	}
	return nil
}

// Append extends the window with one chunk: one leaf solve, the
// amortized-O(1) tail merge, and a refold publishing the new
// generation. An empty chunk is a no-op. On error (injected fault,
// oversized window, failed leaf solve) the session is unchanged and
// still serves its previous generation.
func (s *Session) Append(chunk []byte) error {
	if err := fault(s.inj); err != nil {
		return err
	}
	sp := s.rec.Start(obs.StageStreamAppend)
	defer sp.End()
	s.rec.Add(obs.CounterStreamAppends, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(chunk) == 0 {
		return nil
	}
	if len(s.a)+s.window+len(chunk) > core.MaxOrder {
		return fmt.Errorf("stream: window order %d exceeds the int32 kernel limit %d",
			len(s.a)+s.window+len(chunk), core.MaxOrder)
	}
	k, err := core.SolveTuned(s.a, chunk, s.cfg, s.rec, s.tn)
	if err != nil {
		return err
	}
	s.pushLeafLocked(k.Permutation().RowToCol(), len(chunk))
	return nil
}

// pushLeafLocked installs an already-solved leaf kernel (row→column of
// P(a, chunk), order m+n) as the window's newest chunk: leaf push, tail
// merge, publish. The caller holds s.mu and guarantees n ≥ 1 and that
// the grown window order stays within core.MaxOrder. The kernel slice
// may be shared with other sessions — it is treated as immutable and
// never recycled (see node.owned).
func (s *Session) pushLeafLocked(kern []int32, n int) {
	idx := s.firstLeaf + len(s.leaves)
	s.leaves = append(s.leaves, leaf{kern: kern, n: n})
	s.window += n
	// The new leaf joins the spine as a one-leaf node aliasing the
	// leaf's kernel (owned=false keeps it out of the freelist: leaves
	// outlive spine surgery).
	s.spine = append(s.spine, node{kern: kern, lo: idx, hi: idx + 1, bytes: n})
	s.mergeTail()
	s.publishLocked()
}

// appendLeaf is the group entry point for pushLeafLocked: it takes the
// session mutex but skips the public Append's fault injection,
// instrumentation and validation — the owning Group performs those once
// for the whole fan-out.
func (s *Session) appendLeaf(kern []int32, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushLeafLocked(kern, n)
}

// Slide drops the drop oldest chunks from the window. Spine nodes
// fully inside the dropped range are discarded; the one node the cut
// straddles is rebuilt from its surviving leaf kernels; the spine
// front is then re-normalized (at most one extra merge restores the
// ≥2× invariant). Sliding by zero is a no-op.
func (s *Session) Slide(drop int) error {
	if err := fault(s.inj); err != nil {
		return err
	}
	sp := s.rec.Start(obs.StageStreamAppend)
	defer sp.End()
	s.rec.Add(obs.CounterStreamAppends, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if drop < 0 || drop > len(s.leaves) {
		return fmt.Errorf("stream: slide %d out of [0,%d]", drop, len(s.leaves))
	}
	if drop == 0 {
		return nil
	}
	s.slideLocked(drop)
	return nil
}

// dropLeaves is the group entry point for slideLocked: it takes the
// session mutex but skips the public Slide's fault injection and
// instrumentation — the owning Group performs those once for the whole
// fan-out. The caller guarantees 1 ≤ drop ≤ leaves (the group keeps all
// spines in lockstep, so it validates against its own leaf count).
func (s *Session) dropLeaves(drop int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slideLocked(drop)
}

// slideLocked drops the drop oldest chunks. The caller holds s.mu and
// guarantees 1 ≤ drop ≤ len(s.leaves).
func (s *Session) slideLocked(drop int) {
	cut := s.firstLeaf + drop
	for i := 0; i < drop; i++ {
		s.window -= s.leaves[i].n
	}
	// Dropped leaf kernels go to the garbage collector, not the
	// freelist: a single-leaf publish may have aliased any of them
	// into a generation a reader still holds.
	s.leaves = append(s.leaves[:0], s.leaves[drop:]...)
	s.firstLeaf = cut
	out := s.spine[:0]
	for _, nd := range s.spine {
		switch {
		case nd.hi <= cut:
			s.recycle(nd)
		case nd.lo >= cut:
			out = append(out, nd)
		default:
			rebuilt := s.rebuildLocked(nd.hi, cut)
			s.recycle(nd)
			out = append(out, rebuilt)
		}
	}
	s.spine = out
	// Front-normalize: only the pair (0,1) can violate the invariant
	// after a rebuild, and one merge restores it (the merged node
	// covers at least as many leaves as the old second node did).
	if len(s.spine) >= 2 && s.spine[0].leaves() < 2*s.spine[1].leaves() {
		merged := s.mergeNodes(s.spine[0], s.spine[1])
		s.spine[1] = merged
		s.spine = append(s.spine[:0], s.spine[1:]...)
	}
	s.publishLocked()
}

// mergeTail restores the skew binary counter invariant after an
// append: while the second-to-last node covers fewer than twice the
// leaves of the last, the two merge. Each merge shrinks the spine, so
// total merges are bounded by total appends.
func (s *Session) mergeTail() {
	for len(s.spine) >= 2 {
		k := len(s.spine)
		if s.spine[k-2].leaves() >= 2*s.spine[k-1].leaves() {
			break
		}
		s.spine[k-2] = s.mergeNodes(s.spine[k-2], s.spine[k-1])
		s.spine = s.spine[:k-1]
	}
}

// mergeNodes composes two adjacent spine nodes (l directly before r)
// into one, recycling their buffers where owned.
func (s *Session) mergeNodes(l, r node) node {
	dst := s.getBuf(len(s.a) + l.bytes + r.bytes)
	s.composeB(l.kern, r.kern, l.bytes, r.bytes, dst)
	s.recycle(l)
	s.recycle(r)
	return node{kern: dst, lo: l.lo, hi: r.hi, bytes: l.bytes + r.bytes, owned: true}
}

// rebuildLocked refolds the leaf run [cut, hi) — the surviving part of
// a straddled spine node — from the retained leaf kernels. firstLeaf
// has already advanced to cut, so the run starts at leaves[0].
func (s *Session) rebuildLocked(hi, cut int) node {
	count := hi - cut
	acc := node{kern: s.leaves[0].kern, lo: cut, hi: cut + 1, bytes: s.leaves[0].n}
	for i := 1; i < count; i++ {
		lf := s.leaves[i]
		dst := s.getBuf(len(s.a) + acc.bytes + lf.n)
		s.composeB(acc.kern, lf.kern, acc.bytes, lf.n, dst)
		if acc.owned {
			s.putBuf(acc.kern)
		}
		acc = node{kern: dst, lo: cut, hi: cut + i + 1, bytes: acc.bytes + lf.n, owned: true}
	}
	return acc
}

// publishLocked folds the spine left-to-right into the full window
// kernel and publishes it as a new generation. Fold intermediates are
// recycled; the final buffer's ownership transfers to the published
// generation (it never returns to the freelist).
func (s *Session) publishLocked() {
	s.gen++
	m := len(s.a)
	var kern *core.Kernel
	switch len(s.spine) {
	case 0:
		kern = s.emptyK
	case 1:
		nd := &s.spine[0]
		nd.owned = false // the generation owns the buffer now
		kern = core.NewKernel(perm.FromRowToCol(nd.kern), m, s.window)
	default:
		acc := s.spine[0].kern
		accBytes := s.spine[0].bytes
		accOwned := false
		for i := 1; i < len(s.spine); i++ {
			nxt := s.spine[i]
			dst := s.getBuf(m + accBytes + nxt.bytes)
			s.composeB(acc, nxt.kern, accBytes, nxt.bytes, dst)
			if accOwned {
				s.putBuf(acc)
			}
			acc, accBytes, accOwned = dst, accBytes+nxt.bytes, true
		}
		kern = core.NewKernel(perm.FromRowToCol(acc), m, s.window)
	}
	s.cur.Store(&State{Gen: s.gen, Kernel: kern, Window: s.window, Leaves: len(s.leaves)})
}

// composeB is the counted, observed composition: the kernel of two
// adjacent window pieces multiplies into the kernel of their
// concatenation. Small products are only counted; products of order ≥
// obs.ComposeSpanMinOrder also record a StageStreamCompose span.
func (s *Session) composeB(k1, k2 []int32, n1, n2 int, dst []int32) {
	m := len(s.a)
	s.comps.Add(1)
	s.rec.Add(obs.CounterStreamComposes, 1)
	if s.rec.Enabled() && m+n1+n2 >= obs.ComposeSpanMinOrder {
		sp := s.rec.Start(obs.StageStreamCompose)
		s.comp.composeB(k1, k2, m, n1, n2, dst)
		sp.End()
		return
	}
	s.comp.composeB(k1, k2, m, n1, n2, dst)
}

// getBuf returns a buffer of length n through the session's recycler
// (the session mutex serializes all callers, so the unsynchronized
// pool flavor suffices).
func (s *Session) getBuf(n int) []int32 { return s.pool.Get(n) }

// putBuf retires a buffer into the recycler. Only buffers referenced
// by nothing may be retired; published and leaf-aliased buffers never
// come here (see node.owned).
func (s *Session) putBuf(b []int32) { s.pool.Put(b) }

// recycle retires a spine node's buffer if the node owns it.
func (s *Session) recycle(nd node) {
	if nd.owned {
		s.putBuf(nd.kern)
	}
}
