package server

import (
	"bytes"
	"math/rand"
	"testing"
)

// randPlacements derives n ring positions the way the router does:
// placements of random input pairs.
func randPlacements(rng *rand.Rand, n int) []uint64 {
	pos := make([]uint64, n)
	for i := range pos {
		a := make([]byte, 8+rng.Intn(24))
		b := make([]byte, 8+rng.Intn(24))
		rng.Read(a)
		rng.Read(b)
		pos[i] = place(a, b)
	}
	return pos
}

// TestRingBalance pins the load-balance property: with the default
// vnode fan-out, no shard owns more than 2× its fair share of uniform
// placements (the observed ratio is ~1.2–1.3×; 2× is the conservative
// bound that should never flake).
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a6))
	pos := randPlacements(rng, 20000)
	for _, shards := range []int{2, 4, 8, 16} {
		r := newRing(shards)
		counts := make([]int, shards)
		for _, p := range pos {
			counts[r.lookup(p)]++
		}
		fair := len(pos) / shards
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("shards=%d: shard %d owns no placements", shards, s)
			}
			if c > 2*fair {
				t.Errorf("shards=%d: shard %d owns %d placements, over 2× fair share %d", shards, s, c, fair)
			}
		}
	}
}

// TestRingMinimalMovementOnAdd pins the consistent-hashing contract:
// growing the ring by one shard only moves placements TO the new
// shard — no placement changes hands between surviving shards.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a7))
	pos := randPlacements(rng, 10000)
	before := newRing(4)
	after := before.add(4)
	moved := 0
	for _, p := range pos {
		was, is := before.lookup(p), after.lookup(p)
		if was == is {
			continue
		}
		if is != 4 {
			t.Fatalf("placement moved %d → %d, not to the new shard", was, is)
		}
		moved++
	}
	// The new shard should take roughly a fifth of the circle; any
	// movement at all proves the ring rebalances, the upper bound proves
	// it does not reshuffle wholesale.
	if moved == 0 {
		t.Fatal("adding a shard moved no placements")
	}
	if moved > 2*len(pos)/5 {
		t.Errorf("adding 1 of 5 shards moved %d/%d placements, want ≤ 2/5", moved, len(pos))
	}
}

// TestRingMinimalMovementOnRemove is the inverse contract: removing a
// shard only moves that shard's placements, each to some survivor.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a8))
	pos := randPlacements(rng, 10000)
	before := newRing(5)
	after := before.remove(2)
	for _, p := range pos {
		was, is := before.lookup(p), after.lookup(p)
		if was != 2 && was != is {
			t.Fatalf("placement on surviving shard moved %d → %d on removal of shard 2", was, is)
		}
		if was == 2 && is == 2 {
			t.Fatal("placement still maps to removed shard")
		}
	}
	if got := after.shards(); len(got) != 4 {
		t.Fatalf("after remove: shards = %v, want 4 survivors", got)
	}
}

// TestRingAddRemoveRoundTrip: removing the shard just added restores
// the exact original assignment — immutable rings make this a pure
// structural identity.
func TestRingAddRemoveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a9))
	pos := randPlacements(rng, 2000)
	orig := newRing(3)
	round := orig.add(3).remove(3)
	for _, p := range pos {
		if orig.lookup(p) != round.lookup(p) {
			t.Fatal("add+remove round trip changed an assignment")
		}
	}
}

// TestRingWalkOrder pins the failover contract: walk offers the home
// shard first, every distinct shard exactly once, and honors the first
// acceptance.
func TestRingWalkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11aa))
	r := newRing(6)
	for _, p := range randPlacements(rng, 200) {
		var offered []int
		id, ok := r.walk(p, func(s int) bool {
			offered = append(offered, s)
			return false
		})
		if ok || id != -1 {
			t.Fatalf("walk with all-reject visit returned %d, %v", id, ok)
		}
		if len(offered) != 6 {
			t.Fatalf("walk offered %v, want all 6 shards exactly once", offered)
		}
		if offered[0] != r.lookup(p) {
			t.Fatalf("walk offered %d first, home is %d", offered[0], r.lookup(p))
		}
		seen := map[int]bool{}
		for _, s := range offered {
			if seen[s] {
				t.Fatalf("walk offered shard %d twice: %v", s, offered)
			}
			seen[s] = true
		}
		// Accepting the second offer must return it.
		want := offered[1]
		calls := 0
		id, ok = r.walk(p, func(s int) bool {
			calls++
			return calls == 2
		})
		if !ok || id != want {
			t.Fatalf("walk accept-second returned %d, want %d", id, want)
		}
	}
}

// TestRingDeterministic: two rings built with the same parameters route
// identically — the property that lets every tier replica agree on
// placement without coordination.
func TestRingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11ab))
	a, b := newRing(7), newRing(7)
	for _, p := range randPlacements(rng, 1000) {
		if a.lookup(p) != b.lookup(p) {
			t.Fatal("identically-built rings disagree on a placement")
		}
	}
}

// TestPlaceOrdered pins the placement function: fixed values (computed
// independently from the CRC-32C and splitmix64 definitions), so every
// process and every build places a pair alike; order sensitivity, so
// (a, b) and (b, a) place independently; and lengths in the mix, so
// moving bytes across the a|b boundary moves the placement.
func TestPlaceOrdered(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want uint64
	}{
		{"kitten", "sitting", 0x3e3e26301790c92f},
		{"sitting", "kitten", 0xc906730b20fcba93},
		{"", "", 0xa706dd2f4d197e6f},
	} {
		if got := place([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("place(%q, %q) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(0x11ad))
	for i := 0; i < 1000; i++ {
		a := make([]byte, 1+rng.Intn(32))
		b := make([]byte, 1+rng.Intn(32))
		rng.Read(a)
		rng.Read(b)
		if !bytes.Equal(a, b) && place(a, b) == place(b, a) {
			t.Fatalf("place(a, b) == place(b, a) for a=%x b=%x", a, b)
		}
		ab := append(append([]byte(nil), a...), b...)
		if place(ab[:len(a)-1], ab[len(a)-1:]) == place(a, b) {
			t.Fatalf("shifting the a|b boundary kept the placement for a=%x b=%x", a, b)
		}
	}
}
