package server

import (
	"hash/crc32"
	"sync/atomic"
)

// Placement is rendezvous (highest-random-weight) hashing over the
// fixed shard set 0..n-1 (Thaler & Ravishankar, "Using name-based
// mappings to increase hit rates", IEEE/ACM ToN 1998). A pair's
// placement gives every shard an independent weight, and the shard of
// highest weight is the pair's home. A shard that drops out moves only
// the pairs it was home to, each to the shard of next-highest weight,
// so they spread evenly over the survivors; a shard that joins takes
// only the pairs on which it outweighs every other. Placement names no
// kernel: the engine's content key (store.KeyOf) is computed on the
// shard, only when a kernel is looked up.

// castagnoli is the CRC-32C table; crc32.Castagnoli has hardware
// support (SSE4.2, ARMv8 CRC) behind crc32.Checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// place hashes the ordered pair (a, b) to its placement: the CRC-32C
// of each input, each beside its length, mixed through splitmix64 in
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

// weight is shard i's rendezvous weight for placement pos. Each shard
// XORs in its own seed, i·φ (distinct for every i, as φ is odd), and
// splitmix64 is a bijection, so two shards never tie.
func weight(pos uint64, i int) uint64 {
	return splitmix64(pos ^ uint64(i)*0x9e3779b97f4a7c15)
}

// pick ranks the shards 0..len(down)-1 for placement pos in one pass:
// home is the shard of highest weight, best the highest-weight shard
// that is neither skip nor marked down (-1 when there is none). Failing
// over in descending weight offers every shard once, home first.
func pick(pos uint64, down []atomic.Bool, skip int) (home, best int) {
	home, best = -1, -1
	var homeW, bestW uint64
	for i := range down {
		w := weight(pos, i)
		if home < 0 || w > homeW {
			home, homeW = i, w
		}
		if i != skip && !down[i].Load() && (best < 0 || w > bestW) {
			best, bestW = i, w
		}
	}
	return home, best
}

// splitmix64 is the standard 64-bit finalizing mixer (Vigna) — the
// same full-avalanche hash the chaos injector uses for per-arrival
// decisions, reused here to spread place's two CRCs over all 64 bits
// and to draw the shard weights.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
