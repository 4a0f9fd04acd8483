// Multi-pattern session groups: one growing/sliding text served
// against P fixed patterns with the text-side chunk work shared.
//
// The leaf comb P(a, chunk) depends on the pattern and the chunk only
// through their joint match matrix {(i,j) : a[i] == chunk[j]} — every
// kernel algorithm in this repository compares bytes for equality and
// nothing else. Relabeling the joint alphabet by any bijection
// therefore leaves the kernel bit-identical. A Group exploits this by
// scanning each arriving chunk once (distinct bytes in first-occurrence
// order) and then assigning every pattern a canonical key: the
// pattern's bytes coded by first occurrence, followed by the chunk's
// distinct bytes coded in the same joint numbering. Two patterns with equal keys provably comb to the same
// leaf kernel, so the group solves each equivalence class once and
// shares the immutable kernel slice across all member spines (leaf
// kernels are never recycled, so sharing is safe). Exact duplicate
// patterns collapse further, to a single spine at construction time,
// and a group with one spine skips the keying altogether.
//
// Mutations are group-wide and keep every pattern's spine in lockstep:
// Append validates once, solves all deduplicated leaves before touching
// any spine (a failure leaves the whole group unchanged and
// retryable), then fans the infallible spine surgery out across the
// optional worker pool. Per-pattern reads are the spines' own
// lock-free generation snapshots.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
)

// GroupConfig configures a Group. The zero value is usable: branchless
// anti-diagonal leaf combing, no instrumentation, no fault injection,
// sequential fan-out.
type GroupConfig struct {
	// Solve is the configuration for leaf chunk solves (shared by every
	// pattern); nil selects DefaultSolveConfig.
	Solve *core.Config
	// Obs, when non-nil, records StageStreamGroupAppend /
	// StageStreamGroupFanout spans, the group counters, the spines'
	// StageStreamCompose spans and compositions_total, and the leaf
	// solves' own stages. nil disables instrumentation.
	Obs *obs.Recorder
	// Chaos, when non-nil, is consulted at the stream injection point on
	// entry to every group mutation — once per mutation, not per
	// pattern, so an injected fault leaves all spines on their previous
	// generation. nil disables injection.
	Chaos *chaos.Injector
	// Tuning supplies machine-calibrated solver parameters for the leaf
	// solves; nil runs the built-in defaults.
	Tuning *core.Tuning
	// Pool, when non-nil, fans the per-class leaf solves and per-pattern
	// spine appends out across its workers. The group borrows the pool;
	// it never closes it. nil runs the fan-out inline.
	Pool *parallel.Pool
}

// GroupState is one published group generation: an immutable snapshot
// of the shared window's shape. Per-pattern kernels are read through
// Snapshot.
type GroupState struct {
	// Gen increases by one per effective group mutation (empty appends
	// and zero slides publish nothing).
	Gen uint64
	// Window is the current window length in bytes.
	Window int
	// Leaves is the number of chunks the window consists of.
	Leaves int
	// Patterns is the number of patterns the group serves (duplicates
	// included).
	Patterns int
}

// Group maintains one chunked, sliding window of text against P fixed
// patterns, one spine per distinct pattern, all mutated in lockstep.
// Append and Slide may be called from any goroutine (they serialize on
// an internal mutex); Snapshot, Current and the other read accessors
// are lock-free and safe concurrently with mutations.
type Group struct {
	pats   [][]byte // the P patterns as given, copied
	idx    []int    // pattern index → distinct-spine index
	states []*spine // one spine per distinct pattern
	maxM   int
	cfg    core.Config
	rec    *obs.Recorder
	inj    *chaos.Injector
	tn     *core.Tuning
	pool   *parallel.Pool

	mu     sync.Mutex
	window int
	leaves []int // byte length of each chunk in the window, oldest first
	gen    uint64

	// Operands of the current mutation, read by the fan-out functions.
	chunk []byte
	drop  int
	// The fan-out functions, bound once so no mutation allocates a
	// closure: leaf solve of one class, append and slide of one spine.
	solveFn, appendFn, dropFn func(i int)

	// Retained text-side scratch: the chunk scan, the per-pattern
	// canonical keys and the dedup tables all reuse these across
	// appends, so the steady-state shared pass allocates nothing beyond
	// the unavoidable per-class map-key strings (the alloc guards pin
	// this).
	scan   groupScan
	keyIdx map[string]int // canonical key → class slot, cleared per append
	arena  []byte         // key bytes of the current append's classes
	slot   []int          // distinct-spine index → class slot
	reps   []int          // class slot → representative spine index
	kerns  [][]int32      // class slot → solved leaf kernel
	errs   []error        // class slot → leaf solve error

	leafSolves atomic.Int64
	leafShares atomic.Int64

	cur atomic.Pointer[GroupState]
}

// NewGroup opens a streaming session group over the given patterns.
// Patterns are copied; exact duplicates share one spine. The initial
// generation is the empty window.
func NewGroup(patterns [][]byte, cfg GroupConfig) (*Group, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("stream: group wants at least one pattern")
	}
	g := &Group{
		pats:   make([][]byte, len(patterns)),
		idx:    make([]int, len(patterns)),
		rec:    cfg.Obs,
		inj:    cfg.Chaos,
		tn:     cfg.Tuning,
		pool:   cfg.Pool,
		keyIdx: make(map[string]int),
	}
	g.solveFn, g.appendFn, g.dropFn = g.solveClass, g.appendSpine, g.dropSpine
	g.cfg = DefaultSolveConfig()
	if cfg.Solve != nil {
		g.cfg = *cfg.Solve
	}
	// Probe the configuration with an empty solve so that a bad
	// algorithm fails here, not on the first append.
	if _, err := core.Solve(nil, nil, g.cfg); err != nil {
		return nil, fmt.Errorf("stream: invalid solve config: %w", err)
	}
	distinct := make(map[string]int, len(patterns))
	for i, p := range patterns {
		g.pats[i] = append([]byte(nil), p...)
		if si, ok := distinct[string(p)]; ok {
			g.idx[i] = si
			continue
		}
		if len(p) > core.MaxOrder {
			return nil, fmt.Errorf("stream: pattern %d length %d exceeds the int32 kernel limit %d", i, len(p), core.MaxOrder)
		}
		si := len(g.states)
		g.states = append(g.states, newSpine(g.pats[i], cfg.Obs))
		distinct[string(p)] = si
		g.idx[i] = si
		if len(p) > g.maxM {
			g.maxM = len(p)
		}
	}
	g.cur.Store(&GroupState{Patterns: len(patterns)})
	return g, nil
}

// Patterns returns the number of patterns the group serves, duplicates
// included.
func (g *Group) Patterns() int { return len(g.pats) }

// DistinctPatterns returns the number of distinct patterns — the number
// of spines the group actually maintains.
func (g *Group) DistinctPatterns() int { return len(g.states) }

// Pattern returns a copy of pattern i.
func (g *Group) Pattern(i int) []byte { return append([]byte(nil), g.pats[i]...) }

// M returns the length of pattern i.
func (g *Group) M(i int) int { return len(g.pats[i]) }

// Snapshot returns pattern i's latest published generation — the
// kernel of P(pattern_i, window). It never blocks, even while a group
// mutation is in progress. Duplicate patterns share a spine and return
// the same snapshot.
func (g *Group) Snapshot(i int) State { return *g.states[g.idx[i]].cur.Load() }

// Current returns the latest published group generation.
func (g *Group) Current() GroupState { return *g.cur.Load() }

// Generation returns the latest published group generation number.
func (g *Group) Generation() uint64 { return g.cur.Load().Gen }

// Window returns the published window length in bytes.
func (g *Group) Window() int { return g.cur.Load().Window }

// Leaves returns the published number of chunks in the window.
func (g *Group) Leaves() int { return g.cur.Load().Leaves }

// LeafSolves returns the total number of leaf chunk solves the group
// has performed — one per relabeling class per append.
func (g *Group) LeafSolves() int64 { return g.leafSolves.Load() }

// LeafShares returns the total number of per-pattern leaf solves the
// shared text-side pass avoided: the sum over appends of
// patterns − classes.
func (g *Group) LeafShares() int64 { return g.leafShares.Load() }

// Compositions returns the total steady-ant compositions across all
// member spines.
func (g *Group) Compositions() int64 {
	var total int64
	for _, s := range g.states {
		total += s.comps.Load()
	}
	return total
}

// CompositionsOf returns the compositions performed by pattern i's
// spine. The differential suite bounds this by 2·log₂(leaves) amortized
// per append.
func (g *Group) CompositionsOf(i int) int64 { return g.states[g.idx[i]].comps.Load() }

// Append extends the shared window with one chunk: one chunk scan, one
// leaf solve per relabeling class, and a lockstep spine append across
// every pattern. An empty chunk is a no-op. On error (injected fault,
// oversized window, failed leaf solve) no spine has been touched — the
// whole group is unchanged and still serves its previous generations.
// The stream injection point is consulted once for the whole group.
func (g *Group) Append(chunk []byte) error {
	if err := g.fault(); err != nil {
		return err
	}
	sp := g.rec.Start(obs.StageStreamGroupAppend)
	defer sp.End()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(chunk) == 0 {
		return nil
	}
	if g.maxM+g.window+len(chunk) > core.MaxOrder {
		return fmt.Errorf("stream: window order %d exceeds the int32 kernel limit %d",
			g.maxM+g.window+len(chunk), core.MaxOrder)
	}

	g.chunk = chunk
	defer func() { g.chunk = nil }() // never retain the caller's buffer
	g.groupByKey()

	// Solve one leaf kernel per class — before any spine mutation, so a
	// failure aborts with the whole group untouched.
	fo := g.rec.Start(obs.StageStreamGroupFanout)
	g.kerns = g.kerns[:0]
	g.errs = g.errs[:0]
	for range g.reps {
		g.kerns = append(g.kerns, nil)
		g.errs = append(g.errs, nil)
	}
	g.each(len(g.reps), g.solveFn)
	for _, err := range g.errs {
		if err != nil {
			fo.End()
			return err
		}
	}
	g.leafSolves.Add(int64(len(g.reps)))
	shares := int64(len(g.pats) - len(g.reps))
	g.leafShares.Add(shares)
	g.rec.Add(obs.CounterStreamGroupShares, shares)

	// Fan the infallible spine surgery out: every distinct pattern
	// appends its class's kernel.
	g.each(len(g.states), g.appendFn)
	fo.End()

	g.window += len(chunk)
	g.leaves = append(g.leaves, len(chunk))
	g.publishLocked()
	return nil
}

// Slide drops the drop oldest chunks from the shared window, in
// lockstep across every pattern's spine. Sliding by zero is a no-op.
func (g *Group) Slide(drop int) error {
	if err := g.fault(); err != nil {
		return err
	}
	sp := g.rec.Start(obs.StageStreamGroupAppend)
	defer sp.End()
	g.mu.Lock()
	defer g.mu.Unlock()
	if drop < 0 || drop > len(g.leaves) {
		return fmt.Errorf("stream: slide %d out of [0,%d]", drop, len(g.leaves))
	}
	if drop == 0 {
		return nil
	}
	fo := g.rec.Start(obs.StageStreamGroupFanout)
	g.drop = drop
	g.each(len(g.states), g.dropFn)
	fo.End()
	for _, n := range g.leaves[:drop] {
		g.window -= n
	}
	g.leaves = append(g.leaves[:0], g.leaves[drop:]...)
	g.publishLocked()
	return nil
}

// fault consults the chaos stream point on entry to a mutation, before
// any state changes, so an injected error leaves every spine on its
// previous generation and retrying the same mutation is meaningful.
func (g *Group) fault() error {
	if g.inj.Fire(chaos.PointStream) == chaos.FaultError {
		return chaos.Injected(chaos.PointStream)
	}
	return nil
}

// publishLocked publishes the group generation. Every member spine has
// already published its own matching generation, so a reader that
// observes group generation G sees every pattern at generation ≥ G.
// Only an applied mutation gets here, so the group counters count
// exactly the published generations.
func (g *Group) publishLocked() {
	g.gen++
	g.rec.Add(obs.CounterStreamGroupAppends, 1)
	g.rec.Add(obs.CounterStreamGroupPatterns, int64(len(g.pats)))
	g.cur.Store(&GroupState{
		Gen:      g.gen,
		Window:   g.window,
		Leaves:   len(g.leaves),
		Patterns: len(g.pats),
	})
}

// solveClass solves class j's leaf kernel against the current chunk.
func (g *Group) solveClass(j int) {
	k, err := core.SolveWith(g.states[g.reps[j]].a, g.chunk, g.cfg, g.rec, nil, g.tn)
	if err != nil {
		g.errs[j] = err
		return
	}
	g.kerns[j] = k.Permutation().RowToCol()
}

// appendSpine appends the current chunk's class kernel to spine si.
// Kernel slices shared across spines are immutable leaves and never
// enter a freelist.
func (g *Group) appendSpine(si int) {
	g.states[si].push(g.kerns[g.slot[si]], len(g.chunk))
}

// dropSpine drops the current slide's leaves from spine si.
func (g *Group) dropSpine(si int) { g.states[si].drop(g.drop) }

// each runs fn over [0, n), across the worker pool when the group has
// one and the fan-out is wide enough to pay for the barrier.
func (g *Group) each(n int, fn func(i int)) {
	if g.pool != nil && n > 1 {
		g.pool.Each(n, fn)
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// groupByKey is the shared text-side pass: it scans the current chunk
// once, assigns every distinct pattern its canonical relabeling key
// against it and groups equal keys into classes: slot[si] is spine si's
// class, reps[j] the first spine of class j. One spine is one
// class, so a one-spine group skips the scan and the keys. All scratch
// is retained; only first-seen map keys allocate.
func (g *Group) groupByKey() {
	g.slot = g.slot[:0]
	g.reps = g.reps[:0]
	if len(g.states) == 1 {
		g.slot = append(g.slot, 0)
		g.reps = append(g.reps, 0)
		return
	}
	g.scan.beginChunk(g.chunk)
	clear(g.keyIdx)
	arena := g.arena[:0]
	for si, st := range g.states {
		start := len(arena)
		arena = g.scan.appendKey(arena, st.a)
		key := arena[start:]
		if j, ok := g.keyIdx[string(key)]; ok {
			g.slot = append(g.slot, j)
			arena = arena[:start]
			continue
		}
		j := len(g.reps)
		g.keyIdx[string(key)] = j
		g.reps = append(g.reps, si)
		g.slot = append(g.slot, j)
	}
	g.arena = arena
}

// groupScan is the retained text-side scratch of one chunk scan: the
// chunk's distinct bytes in first-occurrence order plus epoch-stamped
// tables so no per-append clearing is needed.
type groupScan struct {
	epoch     uint32
	seen      [256]uint32 // epoch stamp: byte occurs in the current chunk
	codeEpoch [256]uint32 // epoch stamp for code[] during one appendKey
	code      [256]uint8  // joint canonical code of a byte
	distinct  []byte      // chunk's distinct bytes, first-occurrence order
}

// bump advances the epoch stamp, clearing both stamp tables on the
// (astronomically rare) uint32 wraparound so a stale stamp can never
// alias a live one.
func (sc *groupScan) bump() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		sc.seen = [256]uint32{}
		sc.codeEpoch = [256]uint32{}
		sc.epoch = 1
	}
	return sc.epoch
}

// beginChunk scans the chunk once for its distinct bytes in
// first-occurrence order. Zero-alloc in the steady state (the alloc
// guard pins this).
func (sc *groupScan) beginChunk(chunk []byte) {
	ep := sc.bump()
	sc.distinct = sc.distinct[:0]
	for _, c := range chunk {
		if sc.seen[c] != ep {
			sc.seen[c] = ep
			sc.distinct = append(sc.distinct, c)
		}
	}
}

// appendKey appends the joint canonical relabeling key of (pattern,
// chunk) to dst: the pattern length, the pattern's bytes coded by first
// occurrence, then the chunk's distinct bytes coded in the same joint
// numbering. Two patterns with equal keys have identical match matrices
// against the chunk — byte-for-byte equal leaf kernels.
func (sc *groupScan) appendKey(dst []byte, pattern []byte) []byte {
	ep := sc.bump()
	next := uint8(0)
	m := len(pattern)
	dst = append(dst, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	for _, c := range pattern {
		if sc.codeEpoch[c] != ep {
			sc.codeEpoch[c] = ep
			sc.code[c] = next
			next++
		}
		dst = append(dst, sc.code[c])
	}
	for _, c := range sc.distinct {
		if sc.codeEpoch[c] != ep {
			sc.codeEpoch[c] = ep
			sc.code[c] = next
			next++
		}
		dst = append(dst, sc.code[c])
	}
	return dst
}
