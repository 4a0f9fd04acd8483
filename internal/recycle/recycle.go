// Package recycle is the one buffer-recycling abstraction shared by the
// hot paths of this repository. Three allocators grew up independently —
// the steady-ant arena workspace (internal/steadyant), the streaming
// spine freelist (internal/stream), and the query layer's window-sweep
// scratch (internal/query) — all implementing the same idea: retain a
// bounded set of retired slices and hand them back best-effort, so
// steady-state work at bounded order allocates nothing. This package
// unifies them.
//
// Two flavors cover every call site:
//
//	Pool[T]   — unsynchronized; the caller owns the locking (the stream
//	            session recycles under its mutation mutex, a steadyant
//	            Workspace is single-threaded by contract).
//	Shared[T] — a Pool behind a mutex, for concurrent callers such as
//	            session queries arriving from any goroutine.
//
// Both are bounded: at most MaxRetained retired slices are held (the
// old stream freelist's bound), and anything beyond that is left to the
// garbage collector — a recycler must never become a leak.
// The existing AllocsPerRun zero-alloc guards in steadyant, stream and
// query pin the steady-state behavior end to end.
package recycle

import "sync"

// MaxRetained bounds how many retired buffers a pool holds; it
// inherits the streaming freelist's historical bound.
const MaxRetained = 8

// Pool is an unsynchronized recycler of []T buffers. The zero value is
// ready to use. Callers that share one Pool across goroutines must hold
// their own lock around Get/Put (or use Shared).
type Pool[T any] struct {
	free [][]T
}

// Get returns a length-n slice, reusing a retired buffer when one with
// sufficient capacity exists (the pool is scanned newest-first, so the
// most recently retired — and most cache-warm — buffer wins). Reused
// buffers keep their previous contents; callers that need zeroed memory
// must clear. When nothing fits, a fresh slice is allocated.
func (p *Pool[T]) Get(n int) []T {
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			b := p.free[i][:n]
			p.free[i] = p.free[len(p.free)-1]
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			return b
		}
	}
	return make([]T, n)
}

// Put retires a buffer into the pool. Zero-capacity buffers and
// anything past the retention bound are dropped for the garbage
// collector. The caller must not use b afterwards: the next Get may
// hand it to someone else.
func (p *Pool[T]) Put(b []T) {
	if cap(b) == 0 || len(p.free) >= MaxRetained {
		return
	}
	p.free = append(p.free, b)
}

// Shared is a Pool safe for concurrent use from any goroutine. The
// zero value is ready to use.
type Shared[T any] struct {
	mu sync.Mutex
	p  Pool[T]
}

// Get is Pool.Get under the pool's lock.
func (s *Shared[T]) Get(n int) []T {
	s.mu.Lock()
	b := s.p.Get(n)
	s.mu.Unlock()
	return b
}

// Put is Pool.Put under the pool's lock.
func (s *Shared[T]) Put(b []T) {
	s.mu.Lock()
	s.p.Put(b)
	s.mu.Unlock()
}
