package query

import (
	"context"
	"math/rand"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/dominance"
)

// residentKernels lists every kernel the cache currently holds.
func residentKernels(c *cache) []*core.Kernel {
	var out []*core.Kernel
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).k)
	}
	return out
}

// TestCacheIndexOnDemand: the engine cache keeps kernels without their
// dominance tree. A cold load — every request a never-seen pair with
// one string-substring query — leaves every resident kernel
// unprepared while cache_bytes still equals the sum of their
// reservations; a kernel queried past its scan budget ends up prepared.
func TestCacheIndexOnDemand(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	pair := func(n int) (a, b []byte) {
		a, b = make([]byte, n), make([]byte, n)
		for i := range a {
			a[i], b[i] = byte('a'+rng.Intn(4)), byte('a'+rng.Intn(4))
		}
		return a, b
	}

	t.Run("cold load stays unprepared", func(t *testing.T) {
		e := NewEngine(Options{Workers: 2, MaxKernels: 16})
		defer e.Close()
		for p := 0; p < 48; p++ {
			a, b := pair(64)
			req := Request{A: a, B: b, Kind: StringSubstring, From: 8, To: 56}
			res := e.BatchSolve(ctx, []Request{req})
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			k, err := core.Solve(a, b, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if want := k.Prepare().StringSubstring(8, 56); res[0].Score != want {
				t.Fatalf("pair %d: on-demand answer %d, prepared %d", p, res[0].Score, want)
			}
		}
		resident := residentKernels(e.cache)
		if len(resident) != 16 {
			t.Fatalf("resident kernels = %d, want the 16-kernel capacity", len(resident))
		}
		var reserved int64
		for _, s := range resident {
			if s.Prepared() {
				t.Fatal("a kernel queried once built its dominance tree")
			}
			reserved += int64(s.MemoryBytes())
		}
		snap := e.Stats()
		if snap["cache_evictions"] != 32 {
			t.Fatalf("cache_evictions = %d, want 32", snap["cache_evictions"])
		}
		if snap["cache_bytes"] != reserved {
			t.Fatalf("cache_bytes = %d, want Σ MemoryBytes = %d", snap["cache_bytes"], reserved)
		}
	})

	t.Run("queried past budget ends prepared", func(t *testing.T) {
		e := NewEngine(Options{})
		defer e.Close()
		a, b := pair(64)
		sess, err := e.Acquire(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Prepared() {
			t.Fatal("cache prepared the kernel before any query")
		}
		bytesBefore := e.Stats()["cache_bytes"]
		// StringSubstring(0, n) scans n strands of the 2n-strand
		// kernel, so 2·Levels(2n) of them exhaust the budget and one
		// more buys the tree.
		order := len(a) + len(b)
		reqs := make([]Request, 2*dominance.Levels(order)+1)
		for i := range reqs {
			reqs[i] = Request{A: a, B: b, Kind: StringSubstring, From: 0, To: len(b)}
		}
		want := sess.StringSubstring(0, len(b))
		for _, r := range e.BatchSolve(ctx, reqs) {
			if r.Err != nil || r.Score != want {
				t.Fatalf("result %+v, want score %d", r, want)
			}
		}
		again, err := e.Acquire(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if again != sess || !sess.Prepared() {
			t.Fatal("a cached kernel queried past its scan budget is not prepared")
		}
		if got := e.Stats()["cache_bytes"]; got != bytesBefore {
			t.Fatalf("cache_bytes moved %d → %d when the tree was built; the reservation must cover it", bytesBefore, got)
		}
	})
}
