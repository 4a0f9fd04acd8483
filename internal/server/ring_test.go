package server

import (
	"math/rand"
	"testing"

	"semilocal/internal/store"
)

// randKeys derives n kernel-cache keys the way the router does: content
// hashes of random input pairs.
func randKeys(rng *rand.Rand, n int) []store.Key {
	keys := make([]store.Key, n)
	for i := range keys {
		a := make([]byte, 8+rng.Intn(24))
		b := make([]byte, 8+rng.Intn(24))
		rng.Read(a)
		rng.Read(b)
		keys[i] = store.KeyOf(a, b)
	}
	return keys
}

// TestRingBalance pins the load-balance property: with the default
// vnode fan-out, no shard owns more than 2× its fair share of uniform
// keys (the observed ratio is ~1.2–1.3×; 2× is the conservative bound
// that should never flake).
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a6))
	keys := randKeys(rng, 20000)
	for _, shards := range []int{2, 4, 8, 16} {
		r := newRing(shards)
		counts := make([]int, shards)
		for _, k := range keys {
			counts[r.lookup(k)]++
		}
		fair := len(keys) / shards
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("shards=%d: shard %d owns no keys", shards, s)
			}
			if c > 2*fair {
				t.Errorf("shards=%d: shard %d owns %d keys, over 2× fair share %d", shards, s, c, fair)
			}
		}
	}
}

// TestRingMinimalMovementOnAdd pins the consistent-hashing contract:
// growing the ring by one shard only moves keys TO the new shard —
// no key changes hands between surviving shards.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a7))
	keys := randKeys(rng, 10000)
	before := newRing(4)
	after := before.add(4)
	moved := 0
	for _, k := range keys {
		was, is := before.lookup(k), after.lookup(k)
		if was == is {
			continue
		}
		if is != 4 {
			t.Fatalf("key moved %d → %d, not to the new shard", was, is)
		}
		moved++
	}
	// The new shard should take roughly a fifth of the keyspace; any
	// movement at all proves the ring rebalances, the upper bound proves
	// it does not reshuffle wholesale.
	if moved == 0 {
		t.Fatal("adding a shard moved no keys")
	}
	if moved > 2*len(keys)/5 {
		t.Errorf("adding 1 of 5 shards moved %d/%d keys, want ≤ 2/5", moved, len(keys))
	}
}

// TestRingMinimalMovementOnRemove is the inverse contract: removing a
// shard only moves that shard's keys, each to some survivor.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a8))
	keys := randKeys(rng, 10000)
	before := newRing(5)
	after := before.remove(2)
	for _, k := range keys {
		was, is := before.lookup(k), after.lookup(k)
		if was != 2 && was != is {
			t.Fatalf("key on surviving shard moved %d → %d on removal of shard 2", was, is)
		}
		if was == 2 && is == 2 {
			t.Fatal("key still maps to removed shard")
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
	keys := randKeys(rng, 2000)
	orig := newRing(3)
	round := orig.add(3).remove(3)
	for _, k := range keys {
		if orig.lookup(k) != round.lookup(k) {
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
	for _, k := range randKeys(rng, 200) {
		var offered []int
		id, ok := r.walk(k, func(s int) bool {
			offered = append(offered, s)
			return false
		})
		if ok || id != -1 {
			t.Fatalf("walk with all-reject visit returned %d, %v", id, ok)
		}
		if len(offered) != 6 {
			t.Fatalf("walk offered %v, want all 6 shards exactly once", offered)
		}
		if offered[0] != r.lookup(k) {
			t.Fatalf("walk offered %d first, home is %d", offered[0], r.lookup(k))
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
		id, ok = r.walk(k, func(s int) bool {
			calls++
			return calls == 2
		})
		if !ok || id != want {
			t.Fatalf("walk accept-second returned %d, want %d", id, want)
		}
	}
}

// TestRingDeterministic: two rings built with the same parameters route
// identically — the property that lets every tier replica agree on key
// placement without coordination.
func TestRingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11ab))
	a, b := newRing(7), newRing(7)
	for _, k := range randKeys(rng, 1000) {
		if a.lookup(k) != b.lookup(k) {
			t.Fatal("identically-built rings disagree on a key")
		}
	}
}
