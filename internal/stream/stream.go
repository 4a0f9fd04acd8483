// Package stream maintains the semi-local LCS kernel of a growing —
// and optionally sliding — text b against fixed patterns, without ever
// recombing the whole window.
//
// The kernel P(a,b) is compositional: the kernels of adjacent chunks
// of b multiply under the steady ant (Theorem 3.4 of the paper, flipped
// to the b axis via Theorem 3.5) into the kernel of their
// concatenation. A Group (group.go) combs each arriving chunk into a
// leaf kernel P(a, chunk) — an O(m·chunk) solve — and hands it to one
// spine per distinct pattern. The spine is internal to the group: it
// keeps composed runs of leaves with geometrically decreasing leaf
// counts (every node covers at least twice as many leaves as its
// successor, the skew binary counter invariant). An append pushes a
// one-leaf node and merges the tail while the invariant is violated:
// amortized at most one merge per append, and the spine depth stays
// O(log leaves). The full window kernel is then refolded over the
// ≤ log₂(leaves)+1 spine nodes and published, so an append costs one
// leaf comb plus O(log(n/chunk)) compositions amortized — never a
// from-scratch O(mn) recomb. A window slide drops the oldest leaves,
// rebuilds the one straddling spine node from its surviving leaf
// kernels, and re-normalizes the front of the spine.
//
// Published kernels are immutable generations behind an atomic
// pointer: queries are lock-free and may run concurrently with
// appends, always observing a complete, consistent window. Mutations
// are serialized by the group's mutex; only the group validates a
// mutation, consults the chaos stream point, solves leaves and records
// the mutation.
//
// A composition is cheap in the pattern, not in the window: two
// adjacent pieces share only the m = |a| strands that cross their
// common boundary, so the composer (composer.go) multiplies those m
// strands at order m and maps every other strand directly — O(m log m
// + window) time per composition instead of a full order-(m+window)
// steady-ant product. Its retained scratch is O(m), and spine buffers
// recycle through the shared recycler (internal/recycle), so
// steady-state merges allocate nothing (the alloc guards pin this).
//
// A Session is a group of one pattern.
package stream

import (
	"sync"
	"sync/atomic"

	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/perm"
	"semilocal/internal/recycle"
)

// Config configures a Session. A Session is a group of one, so it takes
// the group's configuration; the zero value is usable.
type Config = GroupConfig

// DefaultSolveConfig is the leaf solve configuration used when
// Config.Solve is nil: branchless anti-diagonal combing, the paper's
// fastest sequential kernel (chunks are small relative to the window,
// so intra-solve parallelism rarely pays).
func DefaultSolveConfig() core.Config {
	return core.Config{Algorithm: core.AntidiagBranchless}
}

// State is one published kernel generation: an immutable snapshot of
// one pattern's window at some point in its mutation history.
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

// Session maintains the kernel of a fixed pattern a against a chunked,
// sliding window of text. It is a Group of one pattern: every mutation
// runs the group's path. Append and Slide may be called from any
// goroutine (they serialize on the group's mutex); Current and the
// other read accessors are lock-free and safe concurrently with
// mutations.
type Session struct{ g *Group }

// New opens a streaming session for pattern a. The pattern is copied;
// the initial generation is the empty window.
func New(a []byte, cfg Config) (*Session, error) {
	g, err := NewGroup([][]byte{a}, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{g: g}, nil
}

// Append extends the window with one chunk; see Group.Append.
func (s *Session) Append(chunk []byte) error { return s.g.Append(chunk) }

// Slide drops the drop oldest chunks from the window; see Group.Slide.
func (s *Session) Slide(drop int) error { return s.g.Slide(drop) }

// M returns the pattern length.
func (s *Session) M() int { return s.g.M(0) }

// Pattern returns a copy of the pattern.
func (s *Session) Pattern() []byte { return s.g.Pattern(0) }

// Current returns the latest published generation. It never blocks,
// even while a mutation is in progress.
func (s *Session) Current() State { return s.g.Snapshot(0) }

// Kernel returns the latest published window kernel.
func (s *Session) Kernel() *core.Kernel { return s.g.Snapshot(0).Kernel }

// Generation returns the latest published generation number.
func (s *Session) Generation() uint64 { return s.g.Generation() }

// Window returns the published window length in bytes.
func (s *Session) Window() int { return s.g.Window() }

// Leaves returns the published number of chunks in the window.
func (s *Session) Leaves() int { return s.g.Leaves() }

// Compositions returns the total number of steady-ant compositions the
// session has performed (spine merges, publish folds, slide rebuilds).
// The differential suite bounds this by 2·log₂(leaves) amortized per
// append.
func (s *Session) Compositions() int64 { return s.g.Compositions() }

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

// spine maintains one pattern's window kernel for its Group. The group
// validates every mutation and solves the leaf before calling push or
// drop, so spine surgery cannot fail. The spine mutex serializes a
// spine's own mutations (the group fans distinct spines out across its
// pool); reads of the published generation are lock-free.
type spine struct {
	a   []byte
	rec *obs.Recorder

	mu        sync.Mutex
	window    int    // bytes across all leaves
	leaves    []leaf // the current window's chunks, oldest first
	firstLeaf int    // absolute index of leaves[0]
	nodes     []node // composed leaf runs, oldest first, leaf counts ≥2× decreasing
	pool      recycle.Pool[int32]
	comp      composer
	gen       uint64
	emptyK    *core.Kernel // P(a, ε), reused by every empty-window generation

	comps atomic.Int64
	cur   atomic.Pointer[State]
}

// newSpine returns the empty-window spine of pattern a (retained, not
// copied: the group owns the pattern).
func newSpine(a []byte, rec *obs.Recorder) *spine {
	s := &spine{a: a, rec: rec}
	s.emptyK = core.NewKernel(perm.Identity(len(a)), len(a), 0)
	s.cur.Store(&State{Kernel: s.emptyK})
	return s
}

// push installs an already-solved leaf kernel (row→column of P(a,
// chunk), order m+n) as the window's newest chunk: leaf push, tail
// merge, publish. The group guarantees n ≥ 1 and that the grown window
// order stays within core.MaxOrder. The kernel slice may be shared with
// other spines — it is treated as immutable and never recycled (see
// node.owned).
func (s *spine) push(kern []int32, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.firstLeaf + len(s.leaves)
	s.leaves = append(s.leaves, leaf{kern: kern, n: n})
	s.window += n
	// The new leaf joins the spine as a one-leaf node aliasing the
	// leaf's kernel (owned=false keeps it out of the freelist: leaves
	// outlive spine surgery).
	s.nodes = append(s.nodes, node{kern: kern, lo: idx, hi: idx + 1, bytes: n})
	s.mergeTail()
	s.publishLocked()
}

// drop drops the drop oldest chunks. Spine nodes fully inside the
// dropped range are discarded; the one node the cut straddles is
// rebuilt from its surviving leaf kernels; the spine front is then
// re-normalized (at most one extra merge restores the ≥2× invariant).
// The group guarantees 1 ≤ drop ≤ leaves (it keeps all spines in
// lockstep, so it validates against its own leaf count).
func (s *spine) drop(drop int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cut := s.firstLeaf + drop
	for i := 0; i < drop; i++ {
		s.window -= s.leaves[i].n
	}
	// Dropped leaf kernels go to the garbage collector, not the
	// freelist: a single-leaf publish may have aliased any of them
	// into a generation a reader still holds.
	s.leaves = append(s.leaves[:0], s.leaves[drop:]...)
	s.firstLeaf = cut
	out := s.nodes[:0]
	for _, nd := range s.nodes {
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
	s.nodes = out
	// Front-normalize: only the pair (0,1) can violate the invariant
	// after a rebuild, and one merge restores it (the merged node
	// covers at least as many leaves as the old second node did).
	if len(s.nodes) >= 2 && s.nodes[0].leaves() < 2*s.nodes[1].leaves() {
		merged := s.mergeNodes(s.nodes[0], s.nodes[1])
		s.nodes[1] = merged
		s.nodes = append(s.nodes[:0], s.nodes[1:]...)
	}
	s.publishLocked()
}

// mergeTail restores the skew binary counter invariant after an
// append: while the second-to-last node covers fewer than twice the
// leaves of the last, the two merge. Each merge shrinks the spine, so
// total merges are bounded by total appends.
func (s *spine) mergeTail() {
	for len(s.nodes) >= 2 {
		k := len(s.nodes)
		if s.nodes[k-2].leaves() >= 2*s.nodes[k-1].leaves() {
			break
		}
		s.nodes[k-2] = s.mergeNodes(s.nodes[k-2], s.nodes[k-1])
		s.nodes = s.nodes[:k-1]
	}
}

// mergeNodes composes two adjacent spine nodes (l directly before r)
// into one, recycling their buffers where owned.
func (s *spine) mergeNodes(l, r node) node {
	dst := s.getBuf(len(s.a) + l.bytes + r.bytes)
	s.composeB(l.kern, r.kern, l.bytes, r.bytes, dst)
	s.recycle(l)
	s.recycle(r)
	return node{kern: dst, lo: l.lo, hi: r.hi, bytes: l.bytes + r.bytes, owned: true}
}

// rebuildLocked refolds the leaf run [cut, hi) — the surviving part of
// a straddled spine node — from the retained leaf kernels. firstLeaf
// has already advanced to cut, so the run starts at leaves[0].
func (s *spine) rebuildLocked(hi, cut int) node {
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
func (s *spine) publishLocked() {
	s.gen++
	m := len(s.a)
	var kern *core.Kernel
	switch len(s.nodes) {
	case 0:
		kern = s.emptyK
	case 1:
		nd := &s.nodes[0]
		nd.owned = false // the generation owns the buffer now
		kern = core.NewKernel(perm.FromRowToCol(nd.kern), m, s.window)
	default:
		acc := s.nodes[0].kern
		accBytes := s.nodes[0].bytes
		accOwned := false
		for i := 1; i < len(s.nodes); i++ {
			nxt := s.nodes[i]
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
func (s *spine) composeB(k1, k2 []int32, n1, n2 int, dst []int32) {
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

// getBuf returns a buffer of length n through the spine's recycler
// (the spine mutex serializes all callers, so the unsynchronized pool
// flavor suffices).
func (s *spine) getBuf(n int) []int32 { return s.pool.Get(n) }

// putBuf retires a buffer into the recycler. Only buffers referenced
// by nothing may be retired; published and leaf-aliased buffers never
// come here (see node.owned).
func (s *spine) putBuf(b []int32) { s.pool.Put(b) }

// recycle retires a spine node's buffer if the node owns it.
func (s *spine) recycle(nd node) {
	if nd.owned {
		s.putBuf(nd.kern)
	}
}
