//go:build !race

package stream

import (
	"bytes"
	"testing"

	"semilocal/internal/benchkit"
)

// TestStreamLeafMergeZeroAllocs pins the streaming append hot path's
// allocation contract: once the composer's workspace has grown to the
// working order, a leaf merge — the steady-ant composition of two
// adjacent spine buffers — performs zero heap allocations. This is the
// benchkit.AssertMaxAllocs gate the bench lanes were missing: an arena
// regression here fails `go test ./internal/stream` (part of make
// check) instead of sailing through bench-smoke unmeasured.
func TestStreamLeafMergeZeroAllocs(t *testing.T) {
	a := bytes.Repeat([]byte("ab"), 16) // m = 32
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkLen = 64
	chunk := bytes.Repeat([]byte("ba"), chunkLen/2)
	for i := 0; i < 4; i++ {
		if err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	sp := s.g.states[0]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	k1 := sp.leaves[len(sp.leaves)-2].kern
	k2 := sp.leaves[len(sp.leaves)-1].kern
	dst := make([]int32, len(a)+2*chunkLen)
	sp.comp.warm(len(a))
	// The raw fused composition.
	benchkit.AssertMaxAllocs(t, "composer.composeB", 0, 100, func() {
		sp.comp.composeB(k1, k2, len(a), chunkLen, chunkLen, dst)
	})
	// The counted spine wrapper with instrumentation disabled adds
	// nothing either.
	benchkit.AssertMaxAllocs(t, "spine.composeB", 0, 100, func() {
		sp.composeB(k1, k2, chunkLen, chunkLen, dst)
	})
}

// TestStreamSteadyStateMergeReusesFreelist checks that a sliding
// steady state — fixed window of fixed-size chunks — stops allocating
// merge buffers: after the warm-up appends, the merge path of further
// append+slide rounds is served from the freelist and the retained
// arena. The full Append still allocates (the leaf solve and the
// published generation are fresh objects by design); the budget here
// bounds exactly those, pinning that per-merge costs are off the heap.
func TestStreamSteadyStateMergeReusesFreelist(t *testing.T) {
	a := bytes.Repeat([]byte("ab"), 16)
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("ba"), 32)
	const windowLeaves = 8
	for i := 0; i < windowLeaves; i++ {
		if err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	// Warm through a few slide rounds so the freelist and workspace
	// reach their steady sizes.
	round := func() {
		if err := s.Slide(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*windowLeaves; i++ {
		round()
	}
	before := testing.AllocsPerRun(20, round)
	// Leaf solve output + kernel wrapper + published state + the
	// session/leaf bookkeeping: a small constant, independent of the
	// number of compositions a round performs. 24 is generous headroom
	// for that constant; an arena or freelist regression multiplies
	// allocations by the compositions per round and blows well past it.
	if before > 24 {
		t.Fatalf("steady-state append+slide round allocates %.1f times, want a small constant ≤ 24", before)
	}
}
