package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every latency histogram.
// Bucket 0 holds durations ≤ 1.024µs; bucket i holds durations in
// (1024·2^(i-1), 1024·2^i] nanoseconds; the last bucket additionally
// absorbs everything larger (its nominal upper edge is ≈ 36 minutes, so
// in practice nothing saturates). Fixed power-of-two edges make every
// snapshot mergeable with every other by plain bucket-wise addition.
const NumBuckets = 32

// bucketBaseBits is the log2 of bucket 0's upper edge in nanoseconds.
const bucketBaseBits = 10

// BucketUpper returns the inclusive upper edge of bucket i. The last
// bucket is unbounded; its nominal edge is returned.
func BucketUpper(i int) time.Duration {
	return time.Duration(1) << (bucketBaseBits + uint(i))
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := uint64(d)
	if d < 0 {
		ns = 0 // a clock anomaly must not index out of range
	}
	if ns <= 1<<bucketBaseBits {
		return 0
	}
	idx := bits.Len64(ns-1) - bucketBaseBits
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// Histogram is a fixed-bucket concurrent latency histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     MaxGauge     // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.max.Record(int64(d))
}

// Snapshot returns a copy of the histogram state. Each cell is read
// atomically; see the package comment for the cross-cell contract.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range s.Counts {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is an immutable copy of a Histogram. Snapshots form a
// commutative monoid under Merge (the zero snapshot is the identity),
// which is what lets per-worker or per-shard histograms be combined in
// any grouping.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64 // nanoseconds
	Max    int64 // nanoseconds
}

// Merge returns the snapshot combining s and o. Merge is associative
// and commutative.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Total returns the summed duration.
func (s HistSnapshot) Total() time.Duration { return time.Duration(s.Sum) }

// Mean returns the mean duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// recorded durations: the upper edge of the first bucket at which the
// cumulative count reaches ⌈q·Count⌉. By construction the true
// quantile lies within that bucket, so the estimate is never below the
// bucket's lower edge and never above its upper edge (the bound the
// property tests pin). Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	cum := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}
