//go:build !race

package recycle

import "testing"

// TestPoolSteadyStateZeroAllocs pins the reason this package exists: a
// Get/Put cycle at an order the pool has already seen allocates nothing.
func TestPoolSteadyStateZeroAllocs(t *testing.T) {
	var p Pool[int32]
	p.Put(make([]int32, 1024))
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get(1024)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Pool Get/Put steady state allocates %.1f per run, want 0", allocs)
	}
}

// TestSharedSteadyStateZeroAllocs pins the same for the mutex-guarded
// flavor the concurrent query paths use.
func TestSharedSteadyStateZeroAllocs(t *testing.T) {
	var s Shared[int]
	s.Put(make([]int, 512))
	allocs := testing.AllocsPerRun(100, func() {
		b := s.Get(512)
		s.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Shared Get/Put steady state allocates %.1f per run, want 0", allocs)
	}
}
