package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// randomSnapshot builds a histogram snapshot from random observations.
func randomSnapshot(rng *rand.Rand, n int) (HistSnapshot, []time.Duration) {
	var h Histogram
	ds := make([]time.Duration, n)
	for i := range ds {
		// Spread observations across many buckets: up to ~2^40 ns.
		ds[i] = time.Duration(rng.Int63n(1 << uint(10+rng.Intn(31))))
		h.Observe(ds[i])
	}
	return h.Snapshot(), ds
}

func TestBucketEdgesMonotone(t *testing.T) {
	for i := 1; i < NumBuckets; i++ {
		if BucketUpper(i) != 2*BucketUpper(i-1) {
			t.Fatalf("bucket %d edge %v is not double bucket %d edge %v",
				i, BucketUpper(i), i-1, BucketUpper(i-1))
		}
	}
	// Every observation lands in the bucket whose half-open range holds it.
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {1, 0}, {1024, 0}, {1025, 1}, {2048, 1}, {2049, 2},
		{-5, 0}, // clock anomaly clamps to bucket 0 rather than panicking
		{time.Duration(1) << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestQuantileBoundedByBucketEdges: for every q, the estimate is the
// upper edge of the bucket containing the true q-quantile — so it is
// never below the bucket's lower edge and never above its upper edge.
func TestQuantileBoundedByBucketEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s, ds := randomSnapshot(rng, 1+rng.Intn(200))
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			est := s.Quantile(q)
			// True quantile by sorting (same rank convention: ceil(q·n), min 1).
			sorted := append([]time.Duration(nil), ds...)
			for i := range sorted {
				for j := i + 1; j < len(sorted); j++ {
					if sorted[j] < sorted[i] {
						sorted[i], sorted[j] = sorted[j], sorted[i]
					}
				}
			}
			rank := int(q * float64(len(sorted)))
			if rank < 1 {
				rank = 1
			}
			if rank > len(sorted) {
				rank = len(sorted)
			}
			truth := sorted[rank-1]
			b := bucketOf(truth)
			upper := BucketUpper(b)
			lower := time.Duration(0)
			if b > 0 {
				lower = BucketUpper(b - 1)
			}
			if est != upper {
				t.Fatalf("q=%v: estimate %v is not the edge %v of the bucket holding the true quantile %v", q, est, upper, truth)
			}
			if truth > est || (b > 0 && truth <= lower) {
				t.Fatalf("q=%v: true quantile %v outside bucket (%v, %v]", q, truth, lower, upper)
			}
		}
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

// TestSnapshotMergeAssociative: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c), with the
// zero snapshot as identity and merge order irrelevant — the property
// that makes per-worker histograms combinable in any grouping.
func TestSnapshotMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		a, _ := randomSnapshot(rng, rng.Intn(100))
		b, _ := randomSnapshot(rng, rng.Intn(100))
		c, _ := randomSnapshot(rng, rng.Intn(100))
		left := a.Merge(b).Merge(c)
		right := a.Merge(b.Merge(c))
		if left != right {
			t.Fatalf("merge not associative:\n%v\n%v", left, right)
		}
		if a.Merge(b) != b.Merge(a) {
			t.Fatal("merge not commutative")
		}
		var zero HistSnapshot
		if a.Merge(zero) != a {
			t.Fatal("zero snapshot is not the merge identity")
		}
	}
}

// TestRecorderSnapshotMergeAssociative lifts the property to whole
// recorder snapshots (stages + counters + depth gauge).
func TestRecorderSnapshotMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mk := func() Snapshot {
		r := New()
		for i := 0; i < 50; i++ {
			st := Stage(rng.Intn(int(NumStages)))
			r.Observe(st, time.Duration(rng.Int63n(1<<30)))
			r.Add(CounterID(rng.Intn(int(NumCounters))), rng.Int63n(1000))
			r.RecordComposeDepth(rng.Int63n(40))
		}
		return r.Snapshot()
	}
	a, b, c := mk(), mk(), mk()
	if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
		t.Fatal("snapshot merge not associative")
	}
	var zero Snapshot
	if a.Merge(zero) != a {
		t.Fatal("zero snapshot is not the merge identity")
	}
}

// TestHistogramConcurrentExactness: hammer one histogram from many
// goroutines; the quiescent snapshot must account for every
// observation exactly (count, bucket sum, and duration sum). Run under
// -race via make test-race.
func TestHistogramConcurrentExactness(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketTotal, s.Count)
	}
	wantSum := int64(0)
	for x := 0; x < goroutines*perG; x++ {
		wantSum += int64(x)
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != int64(goroutines*perG-1) {
		t.Fatalf("max = %d, want %d", s.Max, goroutines*perG-1)
	}
}

// Merge returns the snapshot combining s and o.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	for i := range out.Stages {
		out.Stages[i] = out.Stages[i].Merge(o.Stages[i])
	}
	for i := range out.Counters {
		out.Counters[i] += o.Counters[i]
	}
	if o.ComposeDepthMax > out.ComposeDepthMax {
		out.ComposeDepthMax = o.ComposeDepthMax
	}
	return out
}
