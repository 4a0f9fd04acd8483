package query

import (
	"bytes"
	"container/list"
	"context"
	"sync"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/store"
)

// flight is one in-progress solve that concurrent requests for the same
// key attach to instead of solving again (singleflight).
type flight struct {
	done chan struct{} // closed when k/err are set
	k    *core.Kernel
	err  error
}

// entry is one resident cached kernel.
type entry struct {
	key store.Key
	k   *core.Kernel
}

// cache is the engine's LRU kernel cache with singleflight dedup: one
// mutex guards the resident LRU and the in-flight solve table, and at
// most capacity kernels stay resident. It is keyed by the pair's
// content hash (store.Key) alone — the identity the store persists
// under. The solve configuration only decides how a miss is solved:
// every configuration produces the same kernel, so a kernel cached
// under one serves all.
// When a persistent store tier is attached, it sits under the LRU as a
// write-through second tier: the singleflight spans both tiers, so at
// most one goroutine per key reads the store or solves.
type cache struct {
	mu       sync.Mutex
	resident map[store.Key]*list.Element // values are *entry
	lru      *list.List                  // front = most recently used
	inflight map[store.Key]*flight
	capacity int
	// solve computes a missing kernel: core.SolveWith threaded with the
	// engine's recorder and injector. It is a field only so
	// that tests can count and gate real solves.
	solve func(a, b []byte, cfg core.Config) (*core.Kernel, error)
	rec   *obs.Recorder
	inj   *chaos.Injector
	tier  *storeTier // nil when no persistent store is configured
	ctr   *obs.CounterSet
}

// newCache returns a cache holding at most capacity (≥ 1) kernels.
func newCache(capacity int, ctr *obs.CounterSet, rec *obs.Recorder, inj *chaos.Injector, tier *storeTier) *cache {
	return &cache{
		resident: make(map[store.Key]*list.Element),
		lru:      list.New(),
		inflight: make(map[store.Key]*flight),
		capacity: capacity,
		solve: func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
			return core.SolveWith(a, b, cfg, rec, inj)
		},
		rec:  rec,
		inj:  inj,
		tier: tier,
		ctr:  ctr,
	}
}

// acquire returns the kernel for key, the content key of (a, b),
// solving with cfg at most once per key no matter how many goroutines
// ask concurrently. ctx bounds only this caller's wait: the solve
// itself runs on its own goroutine and always completes and caches its
// result, even if every waiter gives up
// (kernel algorithms are not interruptible mid-DP, and finishing the
// work keeps it amortizable). Detaching the solve from the caller is
// also what makes acquire deadlock-free when callers are pool workers:
// a worker blocked on a flight never holds up the solver it is waiting
// for, because solvers do not need a worker slot.
//
// A hit copies nothing. A miss copies a and b once, because the detached
// solve outlives a caller that may give up and reuse its buffers.
func (c *cache) acquire(ctx context.Context, key store.Key, a, b []byte, cfg core.Config) (*core.Kernel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch c.inj.Fire(chaos.PointAcquire) {
	case chaos.FaultCancel:
		// Behave exactly as if the caller's context had been cancelled
		// on entry: the typed error, no partial work.
		return nil, context.Canceled
	case chaos.FaultEvict:
		c.evictAll(store.Key{}, false)
	}
	// cache_hit / cache_miss histograms split acquire latency by
	// outcome: a hit is a map lookup under the cache lock, a miss (or a
	// dedup join) waits for the solve. The clock is read only when
	// tracing is on.
	var t0 time.Time
	traced := c.rec.Enabled()
	if traced {
		t0 = time.Now()
	}
	c.mu.Lock()
	if el, ok := c.resident[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.ctr.Add(obs.CounterCacheHits, 1)
		if traced {
			c.rec.Observe(obs.StageCacheHit, time.Since(t0))
		}
		return el.Value.(*entry).k, nil
	}
	fl, joined := c.inflight[key]
	if !joined {
		fl = &flight{done: make(chan struct{})}
		c.inflight[key] = fl
	}
	c.mu.Unlock()
	if joined {
		c.ctr.Add(obs.CounterCacheDeduped, 1)
	} else {
		c.ctr.Add(obs.CounterCacheMisses, 1)
		go c.runFlight(key, bytes.Clone(a), bytes.Clone(b), cfg, fl)
	}
	select {
	case <-fl.done:
		if traced {
			c.rec.Observe(obs.StageCacheMiss, time.Since(t0))
		}
		return fl.k, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runFlight fills one flight — from the persistent store when it holds
// the kernel, by solving otherwise — publishes the kernel into the
// LRU (evicting the least recently used past capacity, charging each
// kernel's MemoryBytes reservation to cache_bytes), and releases every
// waiter.
// The flight owns a and b.
//
// The kernel is cached unprepared: most cached kernels answer a handful
// of queries, which direct counting serves without the tree (see
// core.Kernel.H). A kernel queried past its scan budget builds the tree
// inside that query's StageQuery span.
func (c *cache) runFlight(key store.Key, a, b []byte, cfg core.Config, fl *flight) {
	fl.k = c.tier.lookup(key)
	if fl.k == nil {
		fl.k, fl.err = c.solve(a, b, cfg)
		if fl.err == nil {
			c.tier.publish(key, fl.k)
		}
	}

	storm := c.inj.Fire(chaos.PointPublish) == chaos.FaultEvict

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.k != nil {
		c.resident[key] = c.lru.PushFront(&entry{key: key, k: fl.k})
		c.ctr.Add(obs.CounterCacheBytes, int64(fl.k.MemoryBytes()))
		for c.lru.Len() > c.capacity {
			c.evict(c.lru.Back())
		}
	}
	c.mu.Unlock()
	if storm {
		// Eviction storm: flush every other resident kernel, keeping
		// only the one just published — the worst-case cold cache a
		// chaos run forces right after paying for a solve.
		c.evictAll(key, true)
	}
	close(fl.done)
}

// evictAll drops every resident kernel (keeping only `keep` when
// haveKeep is set), counting each drop as an eviction. Evicted kernels
// stay valid for holders; only future acquires re-solve.
func (c *cache) evictAll(keep store.Key, haveKeep bool) {
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if !haveKeep || el.Value.(*entry).key != keep {
			c.evict(el)
		}
		el = next
	}
	c.mu.Unlock()
}

// evict drops one resident kernel, releasing its cache_bytes charge and
// counting the eviction. The caller holds c.mu.
func (c *cache) evict(el *list.Element) {
	e := c.lru.Remove(el).(*entry)
	delete(c.resident, e.key)
	c.ctr.Add(obs.CounterCacheBytes, -int64(e.k.MemoryBytes()))
	c.ctr.Add(obs.CounterCacheEvictions, 1)
}
