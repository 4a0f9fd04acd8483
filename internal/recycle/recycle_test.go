package recycle

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPoolReuse checks the core contract: a retired buffer with enough
// capacity is handed back instead of a fresh allocation.
func TestPoolReuse(t *testing.T) {
	var p Pool[int32]
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) length = %d", len(b))
	}
	b[0] = 42
	p.Put(b)
	if p.Retained() != 1 {
		t.Fatalf("Retained = %d after one Put", p.Retained())
	}
	c := p.Get(50)
	if len(c) != 50 {
		t.Fatalf("Get(50) length = %d", len(c))
	}
	if &c[0] != &b[0] {
		t.Fatal("Get(50) did not reuse the retired 100-cap buffer")
	}
	if p.Retained() != 0 {
		t.Fatalf("Retained = %d after reuse", p.Retained())
	}
}

// TestPoolNewestFirst checks the scan order: the most recently retired
// buffer that fits wins.
func TestPoolNewestFirst(t *testing.T) {
	var p Pool[int]
	a := p.Get(10)
	b := p.Get(10)
	p.Put(a)
	p.Put(b)
	got := p.Get(10)
	if &got[0] != &b[0] {
		t.Fatal("Get did not prefer the newest retired buffer")
	}
}

// TestPoolTooSmallAllocates checks that an undersized freelist entry is
// passed over rather than resliced beyond capacity.
func TestPoolTooSmallAllocates(t *testing.T) {
	var p Pool[byte]
	p.Put(make([]byte, 4))
	b := p.Get(16)
	if len(b) != 16 {
		t.Fatalf("Get(16) length = %d", len(b))
	}
	// The 4-cap buffer must still be retained for a smaller request.
	if p.Retained() != 1 {
		t.Fatalf("Retained = %d; undersized buffer should stay", p.Retained())
	}
}

// TestPoolBounded checks the retention bound: Puts beyond MaxRetained
// are dropped.
func TestPoolBounded(t *testing.T) {
	var p Pool[int32]
	for i := 0; i < MaxRetained+5; i++ {
		p.Put(make([]int32, 8))
	}
	if p.Retained() != MaxRetained {
		t.Fatalf("Retained = %d, want %d", p.Retained(), MaxRetained)
	}
}

// TestPoolZeroCapDropped checks that empty buffers never enter the pool
// (reslicing them can never satisfy a request).
func TestPoolZeroCapDropped(t *testing.T) {
	var p Pool[int]
	p.Put(nil)
	p.Put([]int{})
	if p.Retained() != 0 {
		t.Fatalf("Retained = %d after zero-cap Puts", p.Retained())
	}
}

// TestPoolGetZero checks the degenerate length-0 request.
func TestPoolGetZero(t *testing.T) {
	var p Pool[int]
	p.Put(make([]int, 3))
	b := p.Get(0)
	if len(b) != 0 {
		t.Fatalf("Get(0) length = %d", len(b))
	}
}

// TestPoolRandomized drives a random Get/Put trace and checks the
// invariants the hot paths rely on: lengths are exact, retention stays
// bounded, and reused memory is never handed to two live borrowers.
func TestPoolRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Pool[int32]
	live := map[*int32][]int32{}
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			n := rng.Intn(256) + 1
			b := p.Get(n)
			if len(b) != n {
				t.Fatalf("step %d: Get(%d) length %d", step, n, len(b))
			}
			if _, clash := live[&b[0]]; clash {
				t.Fatalf("step %d: pool handed out a buffer already live", step)
			}
			live[&b[0]] = b
		} else {
			for k, b := range live {
				delete(live, k)
				p.Put(b)
				break
			}
		}
		if p.Retained() > MaxRetained {
			t.Fatalf("step %d: retention bound exceeded: %d", step, p.Retained())
		}
	}
}

// TestSharedConcurrent hammers one Shared pool from many goroutines;
// run under -race this is the data-race gate for the query-layer use.
func TestSharedConcurrent(t *testing.T) {
	var s Shared[int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				n := rng.Intn(128) + 1
				b := s.Get(n)
				for j := range b {
					b[j] = i
				}
				for j := range b {
					if b[j] != i {
						t.Error("buffer shared between two live borrowers")
						return
					}
				}
				s.Put(b)
			}
		}(int64(g))
	}
	wg.Wait()
	if s.Retained() > MaxRetained {
		t.Fatalf("retention bound exceeded: %d", s.Retained())
	}
}

// Retained reports the number of retired buffers currently held.
func (p *Pool[T]) Retained() int { return len(p.free) }

// Retained reports the number of retired buffers currently held.
func (s *Shared[T]) Retained() int {
	s.mu.Lock()
	n := s.p.Retained()
	s.mu.Unlock()
	return n
}
