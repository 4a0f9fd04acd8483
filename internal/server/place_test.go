package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"semilocal/internal/chaos"
	"semilocal/internal/query"
)

// randPairs returns n random input pairs of 8–31 bytes each.
func randPairs(rng *rand.Rand, n int) [][2][]byte {
	pairs := make([][2][]byte, n)
	for i := range pairs {
		a := make([]byte, 8+rng.Intn(24))
		b := make([]byte, 8+rng.Intn(24))
		rng.Read(a)
		rng.Read(b)
		pairs[i] = [2][]byte{a, b}
	}
	return pairs
}

// randPlacements derives n placements the way the router does:
// placements of random input pairs.
func randPlacements(rng *rand.Rand, n int) []uint64 {
	pos := make([]uint64, n)
	for i, p := range randPairs(rng, n) {
		pos[i] = place(p[0], p[1])
	}
	return pos
}

// homes routes each placement over shards 0..n-1 other than skip (-1
// for none): the highest-weight such shard, as pick returns it.
func homes(pos []uint64, n, skip int) []int {
	out := make([]int, len(pos))
	for j, p := range pos {
		out[j] = pick(p, n, skip)
	}
	return out
}

// TestRingBalance pins the load-balance property of rendezvous
// placement: every shard is home to within 10 % of its fair share of
// uniform placements (the weights are independent, so the counts are
// multinomial; the observed spread is at most 5.4 %, at 16 shards).
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a6))
	pos := randPlacements(rng, 20000)
	for _, shards := range []int{2, 4, 8, 16} {
		counts := make([]int, shards)
		for _, h := range homes(pos, shards, -1) {
			counts[h]++
		}
		fair := len(pos) / shards
		for s, c := range counts {
			if c < fair-fair/10 || c > fair+fair/10 {
				t.Errorf("shards=%d: shard %d is home to %d placements, fair share %d ± 10%%", shards, s, c, fair)
			}
		}
	}
}

// TestRingMinimalMovementOnAdd pins the minimal-movement contract:
// growing the shard set from n to n+1 only moves placements TO the new
// shard — no placement changes hands between the old shards — and the
// new shard takes about its fair share.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a7))
	pos := randPlacements(rng, 10000)
	before, after := homes(pos, 4, -1), homes(pos, 5, -1)
	moved := 0
	for i := range pos {
		was, is := before[i], after[i]
		if was == is {
			continue
		}
		if is != 4 {
			t.Fatalf("placement moved %d → %d, not to the new shard", was, is)
		}
		moved++
	}
	if moved < len(pos)/10 || moved > 2*len(pos)/5 {
		t.Errorf("adding 1 of 5 shards moved %d/%d placements, want within [1/10, 2/5]", moved, len(pos))
	}
}

// TestRingMinimalMovementOnRemove is the inverse contract: skipping a
// shard (as a chaos kill of it does) only moves that shard's placements, each to a survivor,
// and spreads them over every survivor.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a8))
	pos := randPlacements(rng, 10000)
	before, after := homes(pos, 5, -1), homes(pos, 5, 2)
	received := make([]int, 5)
	moved := 0
	for i := range pos {
		was, is := before[i], after[i]
		if was != 2 {
			if is != was {
				t.Fatalf("placement on surviving shard moved %d → %d when shard 2 was skipped", was, is)
			}
			continue
		}
		if is == 2 || is < 0 {
			t.Fatalf("placement of the skipped shard went to %d, not to a survivor", is)
		}
		received[is]++
		moved++
	}
	for s, c := range received {
		if s != 2 && c < moved/8 {
			t.Errorf("survivor %d received %d of the %d moved placements, want at least half its fair share", s, c, moved)
		}
	}
}

// TestRingAddRemoveRoundTrip: placement keeps no history. A skipped
// shard routes exactly as if it were absent, so n+1 shards skipping
// shard n assign like n shards.
func TestRingAddRemoveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11a9))
	pos := randPlacements(rng, 2000)
	three := homes(pos, 3, -1)
	for i, is := range homes(pos, 4, 3) {
		if is != three[i] {
			t.Fatalf("placement %#x: home %d with shard 3 skipped, %d at 3 shards", pos[i], is, three[i])
		}
	}
}

// TestRingWalkOrder pins the failover contract against an independent
// ranking of the weights: the home is the shard of highest weight,
// skipping the home (a chaos kill) offers the shard of second-highest
// weight, and skipping any other shard leaves the home in place.
func TestRingWalkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11aa))
	const n = 6
	for _, p := range randPlacements(rng, 200) {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return weight(p, order[x]) > weight(p, order[y]) })
		home := pick(p, n, -1)
		if home != order[0] {
			t.Fatalf("home %d, want the highest-weight shard %d", home, order[0])
		}
		if next := pick(p, n, home); next != order[1] {
			t.Fatalf("skipping the home offered %d, want %d", next, order[1])
		}
		for skip := 0; skip < n; skip++ {
			if got := pick(p, n, skip); skip != home && got != home {
				t.Fatalf("skipping shard %d moved the home %d → %d", skip, home, got)
			}
		}
	}
	if got := pick(1, 1, 0); got != -1 {
		t.Fatalf("skipping the only shard offered %d, want -1", got)
	}
}

// TestRingDeterministic: two tiers built alike route identically — the
// property that lets every tier replica agree on placement without
// coordination — and the weights are pinned by fixed homes (computed
// independently from the splitmix64 definition), so every build places
// a pair alike.
func TestRingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11ab))
	a, err := New(Config{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, p := range randPairs(rng, 1000) {
		ida, erra := a.route(p[0], p[1])
		idb, errb := b.route(p[0], p[1])
		if erra != nil || errb != nil || ida != idb {
			t.Fatalf("identically-built tiers routed a pair to %d (%v) and %d (%v)", ida, erra, idb, errb)
		}
	}
	for _, c := range []struct {
		a, b  string
		homes [4]int // at 2, 4, 7 and 64 shards
	}{
		{"kitten", "sitting", [4]int{0, 0, 5, 5}},
		{"sitting", "kitten", [4]int{1, 2, 2, 25}},
		{"", "", [4]int{1, 3, 3, 41}},
	} {
		pos := []uint64{place([]byte(c.a), []byte(c.b))}
		for j, n := range []int{2, 4, 7, 64} {
			if got := homes(pos, n, -1)[0]; got != c.homes[j] {
				t.Errorf("home of (%q, %q) at %d shards = %d, want %d", c.a, c.b, n, got, c.homes[j])
			}
		}
	}
}

// TestRouteAllocs pins that routing allocates nothing, both when the
// home serves and when a chaos kill sends the pair to the
// next-highest shard.
func TestRouteAllocs(t *testing.T) {
	a, b := []byte("near-identical inputs take the band"), []byte("near-identical input take the band")
	s, err := New(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	home := pick(place(a, b), s.Shards(), -1)
	if allocs := testing.AllocsPerRun(100, func() { s.route(a, b) }); allocs != 0 {
		t.Errorf("route to the home allocates %v per call, want 0", allocs)
	}

	inj, err := chaos.New(chaos.Config{Rules: []chaos.Rule{{Point: chaos.PointShard, Fault: chaos.FaultError, PerMille: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	killed, err := New(Config{Shards: 4, Engine: query.Options{Chaos: inj}})
	if err != nil {
		t.Fatal(err)
	}
	defer killed.Close()
	if id, err := killed.route(a, b); err != nil || id == home {
		t.Fatalf("route under a kill of home %d = %d, %v; want another shard", home, id, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { killed.route(a, b) }); allocs != 0 {
		t.Errorf("route under a chaos kill allocates %v per call, want 0", allocs)
	}
}

// BenchmarkRoute times one route — placement hash, one chaos arrival
// and the weight pass — for a 64-byte pair at 2 and 64 shards.
func BenchmarkRoute(b *testing.B) {
	pa, pb := bytes.Repeat([]byte("ab"), 32), bytes.Repeat([]byte("ba"), 32)
	for _, n := range []int{2, 64} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, err := New(Config{Shards: n})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for b.Loop() {
				s.route(pa, pb)
			}
		})
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
