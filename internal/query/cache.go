package query

import (
	"bytes"
	"container/list"
	"context"
	"encoding/binary"
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

// shard is an independently locked slice of the cache: an LRU of
// resident kernels plus the in-flight solve table.
type shard struct {
	mu       sync.Mutex
	resident map[store.Key]*list.Element // values are *entry
	lru      *list.List                  // front = most recently used
	inflight map[store.Key]*flight
	capacity int
}

// cache is the sharded LRU kernel cache with singleflight dedup. It is
// keyed by the pair's content hash (store.Key) alone — the identity the
// store persists under. The solve configuration only decides how a miss
// is solved: every configuration produces the same kernel, so a kernel
// cached under one serves all.
// When a persistent store tier is attached, it sits under the LRU as a
// write-through second tier: the singleflight spans both tiers, so at
// most one goroutine per key reads the store or solves.
type cache struct {
	shards []*shard
	// solve computes a missing kernel: core.SolveWith threaded with the
	// engine's recorder and injector. It is a field only so
	// that tests can count and gate real solves.
	solve func(a, b []byte, cfg core.Config) (*core.Kernel, error)
	rec   *obs.Recorder
	inj   *chaos.Injector
	tier  *storeTier // nil when no persistent store is configured
	ctr   *obs.CounterSet
}

func newCache(shards, capacity int, ctr *obs.CounterSet, rec *obs.Recorder, inj *chaos.Injector, tier *storeTier) *cache {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		// Every shard owns at least one slot so a live working set of one
		// key per shard can never thrash.
		capacity = shards
	}
	c := &cache{
		shards: make([]*shard, shards),
		solve: func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
			return core.SolveWith(a, b, cfg, rec, inj)
		},
		rec:  rec,
		inj:  inj,
		tier: tier,
		ctr:  ctr,
	}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = &shard{
			resident: make(map[store.Key]*list.Element),
			lru:      list.New(),
			inflight: make(map[store.Key]*flight),
			capacity: per,
		}
	}
	return c
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
	// outcome: a hit is a map lookup under the shard lock, a miss (or a
	// dedup join) waits for the solve. The clock is read only when
	// tracing is on.
	var t0 time.Time
	traced := c.rec.Enabled()
	if traced {
		t0 = time.Now()
	}
	// The server tier places a pair by a CRC-32C of its bytes, never by
	// this content key, so one server shard's keys still spread over all
	// of its cache shards.
	sh := c.shards[binary.LittleEndian.Uint64(key[8:16])%uint64(len(c.shards))]

	sh.mu.Lock()
	if el, ok := sh.resident[key]; ok {
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		c.ctr.Add(obs.CounterCacheHits, 1)
		if traced {
			c.rec.Observe(obs.StageCacheHit, time.Since(t0))
		}
		return el.Value.(*entry).k, nil
	}
	fl, joined := sh.inflight[key]
	if !joined {
		fl = &flight{done: make(chan struct{})}
		sh.inflight[key] = fl
	}
	sh.mu.Unlock()
	if joined {
		c.ctr.Add(obs.CounterCacheDeduped, 1)
	} else {
		c.ctr.Add(obs.CounterCacheMisses, 1)
		go c.runFlight(sh, key, bytes.Clone(a), bytes.Clone(b), cfg, fl)
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
// shard's LRU (evicting past capacity, charging each kernel's
// MemoryBytes reservation to cache_bytes), and releases every waiter.
// The flight owns a and b.
//
// The kernel is cached unprepared: most cached kernels answer a handful
// of queries, which direct counting serves without the tree (see
// core.Kernel.H). A kernel queried past its scan budget builds the tree
// inside that query's StageQuery span.
func (c *cache) runFlight(sh *shard, key store.Key, a, b []byte, cfg core.Config, fl *flight) {
	fl.k = c.tier.lookup(key)
	if fl.k == nil {
		fl.k, fl.err = c.solve(a, b, cfg)
		if fl.err == nil {
			c.tier.publish(key, fl.k)
		}
	}

	storm := c.inj.Fire(chaos.PointPublish) == chaos.FaultEvict

	sh.mu.Lock()
	delete(sh.inflight, key)
	if fl.k != nil {
		sh.resident[key] = sh.lru.PushFront(&entry{key: key, k: fl.k})
		c.ctr.Add(obs.CounterCacheBytes, int64(fl.k.MemoryBytes()))
		for sh.lru.Len() > sh.capacity {
			oldest := sh.lru.Back()
			e := oldest.Value.(*entry)
			sh.lru.Remove(oldest)
			delete(sh.resident, e.key)
			c.ctr.Add(obs.CounterCacheBytes, -int64(e.k.MemoryBytes()))
			c.ctr.Add(obs.CounterCacheEvictions, 1)
		}
	}
	sh.mu.Unlock()
	if storm {
		// Eviction storm: flush every other resident kernel, keeping
		// only the one just published — the worst-case cold cache a
		// chaos run forces right after paying for a solve.
		c.evictAll(key, true)
	}
	close(fl.done)
}

// evictAll drops every resident kernel (keeping only `keep` when
// haveKeep is set), counting each drop as an eviction. Shard locks are
// taken one at a time, never nested. Evicted kernels stay valid for
// holders; only future acquires re-solve.
func (c *cache) evictAll(keep store.Key, haveKeep bool) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if !haveKeep || e.key != keep {
				sh.lru.Remove(el)
				delete(sh.resident, e.key)
				c.ctr.Add(obs.CounterCacheBytes, -int64(e.k.MemoryBytes()))
				c.ctr.Add(obs.CounterCacheEvictions, 1)
			}
			el = next
		}
		sh.mu.Unlock()
	}
}

// len reports the number of resident kernels across all shards.
func (c *cache) len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
