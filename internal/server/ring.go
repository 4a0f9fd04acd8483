package server

import (
	"hash/crc32"
	"sort"
)

// ring is a consistent-hash ring mapping placements (see place) to
// engine shards. Each shard owns defaultVnodes points on a 64-bit
// circle; a placement belongs to the shard owning the first point at or
// clockwise of it. Adding or removing a shard therefore moves only the
// placements in the arcs its points cover — the minimal-movement
// property the ring_test suite pins — while the vnode fan-out keeps
// per-shard load balanced. The ring names no kernel: the engine's
// content key (store.KeyOf) is computed on the shard, only when a
// kernel is looked up.
//
// The ring is immutable after construction from the router's point of
// view; add/remove return fresh rings (they exist for rebalancing and
// for the property tests). Lookups are a binary search over a sorted
// point slice — no locks, safe for concurrent use.
type ring struct {
	points []ringPoint // sorted by hash ascending
}

// ringPoint is one virtual node: a position on the circle owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// defaultVnodes is the per-shard virtual-node count. 128 points per
// shard keeps the max/mean load ratio within ~1.3× for uniform keys
// (the balance property test pins a conservative bound).
const defaultVnodes = 128

// newRing builds a ring over shards 0..shards-1.
func newRing(shards int) *ring {
	r := &ring{}
	for s := 0; s < shards; s++ {
		r.points = append(r.points, vnodePoints(s)...)
	}
	r.sortPoints()
	return r
}

// vnodePoints returns shard s's virtual nodes. splitmix64 is a
// bijection, so distinct (shard, replica) inputs can never collide on
// the circle.
func vnodePoints(s int) []ringPoint {
	pts := make([]ringPoint, defaultVnodes)
	for v := range pts {
		pts[v] = ringPoint{hash: splitmix64(uint64(s)<<24 | uint64(v)), shard: s}
	}
	return pts
}

func (r *ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// add returns a new ring with shard s's virtual nodes inserted.
func (r *ring) add(s int) *ring {
	out := &ring{points: make([]ringPoint, 0, len(r.points)+defaultVnodes)}
	out.points = append(out.points, r.points...)
	out.points = append(out.points, vnodePoints(s)...)
	out.sortPoints()
	return out
}

// remove returns a new ring without shard s's virtual nodes.
func (r *ring) remove(s int) *ring {
	out := &ring{points: make([]ringPoint, 0, len(r.points))}
	for _, p := range r.points {
		if p.shard != s {
			out.points = append(out.points, p)
		}
	}
	return out
}

// castagnoli is the CRC-32C table; crc32.Castagnoli has hardware
// support (SSE4.2, ARMv8 CRC) behind crc32.Checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// place positions the ordered pair (a, b) on the circle: the CRC-32C of
// each input, each beside its length, mixed through splitmix64 in
// order, so (a, b) and (b, a) place independently. A placement is a
// pure function of the bytes — the same in every process and on every
// replica — and costs one hardware CRC pass over the inputs.
//
// Placement never changes an answer: every shard solves bit-identical
// kernels, so a crafted CRC collision can only pile work onto one
// shard, which a client could already do with any public hash by
// trying a few pairs per shard.
func place(a, b []byte) uint64 {
	x := uint64(crc32.Checksum(a, castagnoli)) | uint64(len(a))<<32
	y := uint64(crc32.Checksum(b, castagnoli)) | uint64(len(b))<<32
	return splitmix64(splitmix64(x) ^ y)
}

// lookup returns the home shard of placement pos: the owner of the
// first virtual node at or clockwise of it.
func (r *ring) lookup(pos uint64) int {
	return r.points[r.at(pos)].shard
}

// at returns the index of the first point with hash ≥ h, wrapping to 0.
func (r *ring) at(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// walk calls visit with each distinct shard clockwise of placement pos
// — the home shard first, then the failover successors — until visit
// returns true (the shard was usable) or every shard was offered. It
// returns the accepted shard and true, or -1 and false when visit
// rejected all of them. The walk allocates nothing for the common case of the home
// shard being healthy.
func (r *ring) walk(pos uint64, visit func(shard int) bool) (int, bool) {
	start := r.at(pos)
	n := len(r.points)
	var seen uint64 // shard-id bitmap; shards are small dense ints
	for off := 0; off < n; off++ {
		s := r.points[(start+off)%n].shard
		if s < 64 {
			if seen&(1<<uint(s)) != 0 {
				continue
			}
			seen |= 1 << uint(s)
		}
		if visit(s) {
			return s, true
		}
	}
	return -1, false
}

// shards returns the distinct shard ids on the ring, ascending.
func (r *ring) shards() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.points {
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	sort.Ints(out)
	return out
}

// splitmix64 is the standard 64-bit finalizing mixer (Vigna) — the
// same full-avalanche hash the chaos injector uses for per-arrival
// decisions, reused here to scatter (shard, replica) pairs over the
// circle and to spread place's two CRCs over all 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
