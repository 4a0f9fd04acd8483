package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/oracle"
	"semilocal/internal/parallel"
)

// checkGroup is the group-differential assertion: every pattern's
// snapshot must be bit-identical to an independent single-pattern
// session fed the same mutations AND to a from-scratch solve of the
// window, all spines in lockstep with the group's published shape.
func checkGroup(t *testing.T, g *Group, mirrors []*Session, window []byte, label string) {
	t.Helper()
	gst := *g.cur.Load()
	if gst.Window != len(window) {
		t.Fatalf("%s: group window %d bytes, want %d", label, gst.Window, len(window))
	}
	if gst.Patterns != g.Patterns() {
		t.Fatalf("%s: group state says %d patterns, group has %d", label, gst.Patterns, g.Patterns())
	}
	for i := 0; i < g.Patterns(); i++ {
		st := g.Snapshot(i)
		if st.Window != len(window) || st.Leaves != gst.Leaves {
			t.Fatalf("%s: pattern %d out of lockstep: window %d leaves %d, group %d/%d",
				label, i, st.Window, st.Leaves, gst.Window, gst.Leaves)
		}
		want := fromScratch(t, g.pats[i], window)
		if !st.Kernel.Permutation().Equal(want.Permutation()) {
			t.Fatalf("%s: pattern %d kernel differs from from-scratch solve (m=%d window=%d)",
				label, i, len(g.pats[i]), len(window))
		}
		if mirrors != nil {
			mst := mirrors[i].g.Snapshot(0)
			if !st.Kernel.Permutation().Equal(mst.Kernel.Permutation()) {
				t.Fatalf("%s: pattern %d kernel differs from the independent session", label, i)
			}
			if st.Gen != mst.Gen || st.Leaves != mst.Leaves {
				t.Fatalf("%s: pattern %d gen/leaves %d/%d, independent session %d/%d",
					label, i, st.Gen, st.Leaves, mst.Gen, mst.Leaves)
			}
		}
		checkSpine(t, g.states[g.idx[i]], label)
	}
}

// TestGroupMatchesIndependentRandomized is the group-differential wall
// of the issue: 120 randomized trials of mixed appends and slides over
// random pattern sets (duplicates and relabel-twins included), every
// pattern checked bit-identical to an independent stream.Session and a
// from-scratch core.Solve after every mutation, and the final window
// cross-checked against the quadratic DP oracle.
func TestGroupMatchesIndependentRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randText := func(n, sigma int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(sigma))
		}
		return b
	}
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		sigma := []int{1, 2, 4}[rng.Intn(3)]
		P := 1 + rng.Intn(5)
		patterns := make([][]byte, P)
		for i := range patterns {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				// Exact duplicate of an earlier pattern.
				patterns[i] = append([]byte(nil), patterns[rng.Intn(i)]...)
			case i > 0 && rng.Intn(4) == 0:
				// Relabel twin: an earlier pattern shifted to a disjoint
				// alphabet range (shares leaf solves when the chunk's
				// bytes miss both alphabets).
				src := patterns[rng.Intn(i)]
				tw := make([]byte, len(src))
				for j, c := range src {
					tw[j] = c + 16
				}
				patterns[i] = tw
			default:
				patterns[i] = randText(rng.Intn(13), sigma)
			}
		}
		g, err := NewGroup(patterns, GroupConfig{})
		if err != nil {
			t.Fatalf("trial %d: NewGroup: %v", trial, err)
		}
		mirrors := make([]*Session, P)
		for i := range mirrors {
			if mirrors[i], err = New(patterns[i], Config{}); err != nil {
				t.Fatalf("trial %d: mirror %d: %v", trial, i, err)
			}
		}
		var chunks [][]byte
		windowOf := func() []byte {
			var w []byte
			for _, c := range chunks {
				w = append(w, c...)
			}
			return w
		}
		ops := 6 + rng.Intn(10)
		for op := 0; op < ops; op++ {
			if len(chunks) > 0 && rng.Intn(4) == 0 {
				drop := 1 + rng.Intn(len(chunks))
				if err := g.Slide(drop); err != nil {
					t.Fatalf("trial %d op %d: Slide(%d): %v", trial, op, drop, err)
				}
				for _, m := range mirrors {
					if err := m.Slide(drop); err != nil {
						t.Fatalf("trial %d op %d: mirror Slide: %v", trial, op, err)
					}
				}
				chunks = chunks[drop:]
			} else {
				size := 1 + rng.Intn(8)
				if rng.Intn(3) == 0 {
					size = 1
				}
				chunk := randText(size, sigma)
				if err := g.Append(chunk); err != nil {
					t.Fatalf("trial %d op %d: Append: %v", trial, op, err)
				}
				for _, m := range mirrors {
					if err := m.Append(chunk); err != nil {
						t.Fatalf("trial %d op %d: mirror Append: %v", trial, op, err)
					}
				}
				chunks = append(chunks, chunk)
			}
			checkGroup(t, g, mirrors, windowOf(), "mid-trial")
		}
		window := windowOf()
		for i := 0; i < P; i++ {
			if got, want := g.Snapshot(i).Kernel.Score(), oracle.Score(patterns[i], window); got != want {
				t.Fatalf("trial %d pattern %d: Score = %d, oracle says %d", trial, i, got, want)
			}
		}
	}
}

// TestGroupCompositionBound pins the per-pattern amortized composition
// budget: driving P spines through one group costs each pattern no more
// than a standalone session — ≤ 2·log₂(L) compositions per append
// amortized, for every pattern.
func TestGroupCompositionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	patterns := [][]byte{
		[]byte("pattern"), []byte("pattern"), // duplicate
		[]byte("abcabc"), []byte("zzz"), []byte(""),
	}
	for _, L := range []int{2, 3, 7, 8, 64, 100, 257} {
		g, err := NewGroup(patterns, GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < L; i++ {
			chunk := make([]byte, 1+rng.Intn(5))
			for j := range chunk {
				chunk[j] = byte('a' + rng.Intn(3))
			}
			if err := g.Append(chunk); err != nil {
				t.Fatal(err)
			}
		}
		lim := 2 * math.Log2(float64(L))
		for i := range patterns {
			perAppend := float64(g.states[g.idx[i]].comps.Load()) / float64(L)
			if perAppend > lim {
				t.Fatalf("L=%d pattern %d: %.2f compositions per append exceed 2·log2(L) = %.2f",
					L, i, perAppend, lim)
			}
		}
	}
}

// TestGroupLeafSharing pins the shared text-side pass: patterns that
// are exact duplicates pay nothing (one spine), and patterns whose
// joint canonical relabeling against the chunk coincides share one leaf
// solve — while still publishing bit-identical-to-scratch kernels.
func TestGroupLeafSharing(t *testing.T) {
	rec := obs.New()
	// "AA", "CC", "GG" are pairwise distinct patterns, but against the
	// chunk "TT" (disjoint from all three alphabets) their joint
	// relabelings coincide: one leaf solve serves all three. "AA" twice
	// collapses at construction already.
	patterns := [][]byte{[]byte("AA"), []byte("AA"), []byte("CC"), []byte("GG")}
	g, err := NewGroup(patterns, GroupConfig{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if g.Patterns() != 4 || g.DistinctPatterns() != 3 {
		t.Fatalf("patterns %d distinct %d, want 4 and 3", g.Patterns(), g.DistinctPatterns())
	}
	if err := g.Append([]byte("TT")); err != nil {
		t.Fatal(err)
	}
	if got := g.LeafSolves(); got != 1 {
		t.Fatalf("append of a disjoint chunk performed %d leaf solves, want 1", got)
	}
	if got := g.LeafShares(); got != 3 {
		t.Fatalf("leaf shares = %d, want 3 (4 patterns − 1 class)", got)
	}
	// A chunk touching the alphabets splits the classes: against
	// "CACA", "AA" matches the A's, "CC" matches the C's and "GG"
	// matches nothing — three distinct joint relabelings, three solves.
	if err := g.Append([]byte("CACA")); err != nil {
		t.Fatal(err)
	}
	if got := g.LeafSolves(); got != 1+3 {
		t.Fatalf("leaf solves after mixed chunk = %d, want 4", got)
	}
	checkGroup(t, g, nil, []byte("TTCACA"), "sharing")
	// Duplicate patterns literally share one spine and one snapshot.
	if g.idx[0] != g.idx[1] {
		t.Fatal("duplicate patterns must share a spine")
	}
	if rec.Counter(obs.CounterStreamGroupAppends) != 2 {
		t.Fatalf("stream_group_appends = %d, want 2", rec.Counter(obs.CounterStreamGroupAppends))
	}
	if rec.Counter(obs.CounterStreamGroupPatterns) != 8 {
		t.Fatalf("stream_group_patterns = %d, want 8 (4 patterns × 2 mutations)", rec.Counter(obs.CounterStreamGroupPatterns))
	}
	if got, want := rec.Counter(obs.CounterStreamGroupShares), g.LeafShares(); got != want {
		t.Fatalf("stream_group_shares = %d, group says %d", got, want)
	}
}

// TestGroupCountsOnlyAppliedMutations mixes applied mutations with
// no-ops (an empty append, a zero slide) and rejected ones (an
// out-of-range slide, a window past the kernel order limit): only the
// applied ones bump the group counters, so stream_group_appends equals
// the group generation.
func TestGroupCountsOnlyAppliedMutations(t *testing.T) {
	rec := obs.New()
	patterns := [][]byte{[]byte("ab"), []byte("ba"), []byte("abc")}
	g, err := NewGroup(patterns, GroupConfig{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	mustFail := func(err error, what string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: want an error", what)
		}
	}
	noErr := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	noErr(g.Append([]byte("abab")))
	noErr(g.Append(nil))
	noErr(g.Slide(0))
	mustFail(g.Slide(2), "slide past the leaves")
	mustFail(g.Slide(-1), "negative slide")
	noErr(g.Append([]byte("cab")))
	noErr(g.Slide(1))
	// The order check runs before any solve, so no such chunk is built
	// in full: the window would pass core.MaxOrder.
	g.mu.Lock()
	g.window = core.MaxOrder
	g.mu.Unlock()
	mustFail(g.Append([]byte("x")), "oversize window")
	g.mu.Lock()
	g.window = 3
	g.mu.Unlock()
	noErr(g.Append([]byte("b")))
	checkGroup(t, g, nil, []byte("cabb"), "counted")

	if gen := g.Generation(); gen != 4 {
		t.Fatalf("generation %d after 4 applied mutations", gen)
	}
	if got := rec.Counter(obs.CounterStreamGroupAppends); got != int64(g.Generation()) {
		t.Fatalf("stream_group_appends = %d, want the generation %d", got, g.Generation())
	}
	if got, want := rec.Counter(obs.CounterStreamGroupPatterns), int64(4*len(patterns)); got != want {
		t.Fatalf("stream_group_patterns = %d, want %d (3 patterns × 4 mutations)", got, want)
	}
}

// TestGroupRelabelKeyExactness pins the canonical key itself: equal
// keys imply byte-identical leaf kernels (soundness — checked by the
// differential wall), and the classes it forms are not trivially
// coarse: patterns that must comb differently get different keys.
func TestGroupRelabelKeyExactness(t *testing.T) {
	var sc groupScan
	key := func(chunk, pattern []byte) string {
		sc.beginChunk(chunk)
		return string(sc.appendKey(nil, pattern))
	}
	chunk := []byte("AB")
	if key(chunk, []byte("AA")) == key(chunk, []byte("AB")) {
		t.Fatal("patterns AA and AB must not share a class against chunk AB")
	}
	// ABAB vs CDCD: same intra-pattern structure, but ABAB matches the
	// chunk and CDCD does not — keys must differ.
	if key(chunk, []byte("ABAB")) == key(chunk, []byte("CDCD")) {
		t.Fatal("ABAB and CDCD must not share a class against chunk AB")
	}
	// XY vs PQ against a disjoint chunk: identical match matrices, one
	// class.
	if key(chunk, []byte("XY")) != key(chunk, []byte("PQ")) {
		t.Fatal("XY and PQ must share a class against the disjoint chunk AB")
	}
	// Same bytes, different length: never one class.
	if key(chunk, []byte("X")) == key(chunk, []byte("XX")) {
		t.Fatal("patterns of different length must not share a class")
	}
}

// TestGroupWithPool runs the randomized differential against a group
// fanning out over a real worker pool: concurrency must not change a
// single published bit.
func TestGroupWithPool(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	patterns := [][]byte{[]byte("gattaca"), []byte("tac"), []byte("gattaca"), []byte("aaaa"), []byte("ccgg")}
	g, err := NewGroup(patterns, GroupConfig{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var chunks [][]byte
	for op := 0; op < 30; op++ {
		if len(chunks) > 1 && rng.Intn(5) == 0 {
			drop := 1 + rng.Intn(len(chunks))
			if err := g.Slide(drop); err != nil {
				t.Fatal(err)
			}
			chunks = chunks[drop:]
		} else {
			c := make([]byte, 1+rng.Intn(6))
			for j := range c {
				c[j] = byte('a' + rng.Intn(4))
			}
			if err := g.Append(c); err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, c)
		}
	}
	var window []byte
	for _, c := range chunks {
		window = append(window, c...)
	}
	checkGroup(t, g, nil, window, "pool")
}

// TestGroupEdges exercises construction and mutation boundary
// semantics.
func TestGroupEdges(t *testing.T) {
	if _, err := NewGroup(nil, GroupConfig{}); err == nil {
		t.Fatal("zero patterns must fail")
	}
	bad := core.Config{Algorithm: core.Algorithm(250)}
	if _, err := NewGroup([][]byte{[]byte("a")}, GroupConfig{Solve: &bad}); err == nil {
		t.Fatal("invalid solve config must fail at construction")
	}
	g, err := NewGroup([][]byte{[]byte("edge"), []byte("ed")}, GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty append: no-op, no generation.
	if err := g.Append(nil); err != nil {
		t.Fatal(err)
	}
	if g.Generation() != 0 {
		t.Fatal("empty append must not publish")
	}
	// Slide range errors leave the group untouched.
	if err := g.Slide(-1); err == nil {
		t.Fatal("Slide(-1) must fail")
	}
	if err := g.Slide(1); err == nil {
		t.Fatal("sliding past the window must fail")
	}
	if err := g.Append([]byte("edgy")); err != nil {
		t.Fatal(err)
	}
	if err := g.Slide(0); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, nil, []byte("edgy"), "edges")
	// Slide to empty and refill.
	if err := g.Slide(1); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, nil, nil, "empty")
	if err := g.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, nil, []byte("fresh"), "refill")
	// Stored patterns and per-spine composition counts.
	if string(g.pats[1]) != "ed" || len(g.pats[0]) != 4 {
		t.Fatal("group holds the wrong patterns")
	}
	if g.Compositions() != g.states[g.idx[0]].comps.Load()+g.states[g.idx[1]].comps.Load() {
		t.Fatal("Compositions must sum the member spines")
	}
}

// TestGroupChaosErrorMetamorphic is the group metamorphic case: under
// error chaos at the stream point, every group mutation either applies
// fully across all P spines or fails with the typed transient error and
// changes nothing — no spine may ever advance without the others.
func TestGroupChaosErrorMetamorphic(t *testing.T) {
	inj, err := chaos.New(chaos.Config{
		Seed:  99,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("faulty"), []byte("fault"), []byte("faulty")}
	g, err := NewGroup(patterns, GroupConfig{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	var (
		chunks   [][]byte
		injected int
	)
	script := []string{"ab", "cde", "f", "abcd", "ef", "a", "bb", "cdc", "de", "fa", "bc", "ddd"}
	for i, c := range script {
		genBefore := g.Generation()
		err := g.Append([]byte(c))
		if err != nil {
			if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("append %d: non-injected error %v", i, err)
			}
			var tr interface{ Transient() bool }
			if !errors.As(err, &tr) || !tr.Transient() {
				t.Fatalf("append %d: injected error is not transient", i)
			}
			if g.Generation() != genBefore {
				t.Fatalf("append %d: failed mutation published a group generation", i)
			}
			injected++
		} else {
			chunks = append(chunks, []byte(c))
		}
		var window []byte
		for _, ch := range chunks {
			window = append(window, ch...)
		}
		checkGroup(t, g, nil, window, "chaos-error")
	}
	if injected == 0 {
		t.Fatal("seed 99 at 400‰ injected nothing; deterministic schedule changed?")
	}
	if got := inj.Fired(); got != int64(injected) {
		t.Fatalf("injector fired %d, observed %d errors", got, injected)
	}
	// One arrival per group mutation — not per pattern.
	if got := inj.Arrivals(chaos.PointStream); got != int64(len(script)) {
		t.Fatalf("stream point consulted %d times, want %d (once per group mutation)", got, len(script))
	}
}

// TestGroupChaosLatency checks that latency faults only delay group
// mutations: every one succeeds, fired exactly once per mutation, and
// all kernels stay bit-identical to scratch.
func TestGroupChaosLatency(t *testing.T) {
	rec := obs.New()
	inj, err := chaos.New(chaos.Config{
		Seed: 7,
		Obs:  rec,
		Rules: []chaos.Rule{{
			Point: chaos.PointStream, Fault: chaos.FaultLatency,
			PerMille: 1000, Latency: 100 * time.Microsecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("slowly"), []byte("slow")}
	g, err := NewGroup(patterns, GroupConfig{Chaos: inj, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var window []byte
	for _, c := range []string{"slow", "ly", "but", "sure", "ly"} {
		if err := g.Append([]byte(c)); err != nil {
			t.Fatal(err)
		}
		window = append(window, c...)
		checkGroup(t, g, nil, window, "chaos-latency")
	}
	if err := g.Slide(2); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, nil, window[6:], "chaos-latency-slide")
	if got := inj.Arrivals(chaos.PointStream); got != 6 {
		t.Fatalf("stream point consulted %d times, want 6", got)
	}
	if rec.Counter(obs.CounterFaultsInjected) != 6 {
		t.Fatalf("faults_injected = %d, want 6", rec.Counter(obs.CounterFaultsInjected))
	}
	if rec.Counter(obs.CounterStreamGroupAppends) != 6 {
		t.Fatalf("stream_group_appends = %d, want 6", rec.Counter(obs.CounterStreamGroupAppends))
	}
	if rec.OpenSpans() != 0 {
		t.Fatalf("open spans = %d after quiescence, want 0", rec.OpenSpans())
	}
}
