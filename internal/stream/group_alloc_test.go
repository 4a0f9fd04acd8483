//go:build !race

package stream

import (
	"bytes"
	"testing"

	"semilocal/internal/benchkit"
)

// TestGroupScanZeroAllocs pins the shared text-side pass's allocation
// contract: once the scan scratch and the key arena have grown to the
// working sizes, scanning a chunk and keying every pattern against it
// performs zero heap allocations. This is the work a group does once
// per append regardless of P — it must never scale allocations with
// the pattern count.
func TestGroupScanZeroAllocs(t *testing.T) {
	g, err := NewGroup([][]byte{
		bytes.Repeat([]byte("ab"), 8),
		bytes.Repeat([]byte("cd"), 8),
		bytes.Repeat([]byte("ba"), 8),
	}, GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("dcba"), 16)
	// Warm: grow the distinct list and the key arena once.
	g.scan.beginChunk(chunk)
	g.arena = g.arena[:0]
	for _, st := range g.states {
		g.arena = g.scan.appendKey(g.arena, st.a)
	}
	benchkit.AssertMaxAllocs(t, "group.beginChunk", 0, 100, func() {
		g.scan.beginChunk(chunk)
	})
	benchkit.AssertMaxAllocs(t, "group.appendKey", 0, 100, func() {
		g.arena = g.arena[:0]
		for _, st := range g.states {
			g.arena = g.scan.appendKey(g.arena, st.a)
		}
	})
}

// TestGroupSteadyStateAppendAllocs bounds the steady-state group
// append+slide round: P patterns in one relabeling class must allocate
// like ONE session round plus per-spine publish bookkeeping — the class
// map's key string and the shared solve amortize across all patterns.
// A regression that re-solves per pattern multiplies the budget by P
// and fails loudly.
func TestGroupSteadyStateAppendAllocs(t *testing.T) {
	// Eight distinct patterns on pairwise shifted alphabets: against a
	// chunk disjoint from all of them they form one relabeling class.
	var patterns [][]byte
	for i := 0; i < 8; i++ {
		p := bytes.Repeat([]byte{byte('A' + 2*i), byte('B' + 2*i)}, 8)
		patterns = append(patterns, p)
	}
	g, err := NewGroup(patterns, GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("xy"), 32)
	const windowLeaves = 8
	for i := 0; i < windowLeaves; i++ {
		if err := g.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		if err := g.Slide(1); err != nil {
			t.Fatal(err)
		}
		if err := g.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*windowLeaves; i++ {
		round()
	}
	if got := g.LeafSolves(); got != int64(windowLeaves+2*windowLeaves) {
		t.Fatalf("warm-up performed %d leaf solves, want one per append = %d", got, 3*windowLeaves)
	}
	allocs := testing.AllocsPerRun(20, round)
	// One shared leaf solve + one class key string + per-spine publish
	// bookkeeping (state + kernel wrapper per pattern). With the single-
	// session round budgeted at 24, eight spines sharing one solve fit
	// comfortably in 100; re-solving per pattern would cost 8 solves
	// (~10 allocations each) and blow past it.
	if allocs > 100 {
		t.Fatalf("steady-state group round allocates %.1f times for 8 shared patterns, want ≤ 100", allocs)
	}
}

// TestGroupOnePatternRoundAllocs pins the P = 1 group round — the shape
// every engine-served single-pattern stream runs — close to a bare
// Session round: one leaf solve, one spine append, one published
// generation. The group's own work (fan-out dispatch, class keying) must
// add no per-round closures or map keys when there is one spine.
func TestGroupOnePatternRoundAllocs(t *testing.T) {
	a := bytes.Repeat([]byte("GATTACCA"), 8) // m = 64
	chunk := bytes.Repeat([]byte("TACGATCAGGTACCAT"), 16)
	const windowLeaves = 4
	g, err := NewGroup([][]byte{a}, GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < windowLeaves; i++ {
		if err := g.Append(chunk); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	groupRound := func() {
		if err := g.Slide(1); err != nil {
			t.Fatal(err)
		}
		if err := g.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	sessionRound := func() {
		if err := s.Slide(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*windowLeaves; i++ {
		groupRound()
		sessionRound()
	}
	group := testing.AllocsPerRun(20, groupRound)
	session := testing.AllocsPerRun(20, sessionRound)
	t.Logf("one-pattern round: group %.1f allocs, session %.1f allocs", group, session)
	if group > 17 {
		t.Fatalf("one-pattern group round allocates %.1f times (session round %.1f), want ≤ 17", group, session)
	}
}
