package query

import (
	"errors"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/store"
	"sync"
)

// storeTier bridges the cache and the persistent kernel store: a cache
// miss consults the store before paying for a solve, and a finished
// solve publishes its kernel to a background appender so durability
// never sits on the request path. A nil *storeTier is the disabled
// tier — every method on a nil receiver is a free no-op, matching the
// nil-Recorder/nil-Injector convention, so engines without a store pay
// nothing.
//
// The tier does not own the store: the caller opens it, passes it via
// Options.Store, and closes it after the engine. tier.close drains the
// append queue first, so every kernel handed to publish before
// Engine.Close is durably on disk when Close returns.
type storeTier struct {
	st  *store.Store
	ctr *obs.CounterSet
	rec *obs.Recorder
	inj *chaos.Injector

	mu      sync.Mutex
	closed  bool
	wg      sync.WaitGroup // publishes accepted, not yet appended
	pending chan tierAppend
	done    chan struct{} // closed when the publisher goroutine exits
}

type tierAppend struct {
	key store.Key
	k   *core.Kernel
}

// tierQueueDepth bounds kernels awaiting their background append. The
// queue only backs up when solves outrun fsyncs; publishers then block
// briefly rather than hold unbounded kernel memory alive.
const tierQueueDepth = 128

func newStoreTier(st *store.Store, ctr *obs.CounterSet, rec *obs.Recorder, inj *chaos.Injector) *storeTier {
	if st == nil {
		return nil
	}
	t := &storeTier{
		st:      st,
		ctr:     ctr,
		rec:     rec,
		inj:     inj,
		pending: make(chan tierAppend, tierQueueDepth),
		done:    make(chan struct{}),
	}
	// Records the open scan already skipped are corruption this tier's
	// operator needs to see, even though the reads happened before the
	// engine existed.
	if n := st.CorruptRecords(); n > 0 {
		ctr.Add(obs.CounterStoreCorrupt, n)
	}
	go t.run()
	return t
}

// lookup consults the store for the kernel under key, returning nil on
// any miss: absent key, corrupt record, injected fault, or closed
// store. The caller falls through to an ordinary solve, so a failing
// store degrades the serving path without changing any answer.
func (t *storeTier) lookup(key store.Key) *core.Kernel {
	if t == nil {
		return nil
	}
	if d := t.inj.At(chaos.PointStore); d.Fault != chaos.FaultNone {
		switch d.Fault {
		case chaos.FaultLatency, chaos.FaultStall:
			time.Sleep(d.Latency)
		case chaos.FaultError:
			t.ctr.Add(obs.CounterStoreMisses, 1)
			return nil
		}
	}
	sp := t.rec.Start(obs.StageStoreRead)
	k, err := t.st.Get(key)
	sp.End()
	if err == nil {
		t.ctr.Add(obs.CounterStoreHits, 1)
		return k
	}
	if errors.Is(err, store.ErrCorrupt) {
		t.ctr.Add(obs.CounterStoreCorrupt, 1)
	}
	t.ctr.Add(obs.CounterStoreMisses, 1)
	return nil
}

// publish hands a freshly solved kernel to the background appender.
// It never blocks on disk I/O (only, briefly, on a full queue) and
// silently drops the kernel when the tier is already closed — a
// detached flight finishing after Engine.Close loses only warmth,
// never correctness.
func (t *storeTier) publish(key store.Key, k *core.Kernel) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.mu.Unlock()
	t.pending <- tierAppend{key: key, k: k}
}

// run is the publisher goroutine: it drains the append queue, writing
// each kernel through the chaos point and recording the append (and
// any compaction pass it triggered).
func (t *storeTier) run() {
	for p := range t.pending {
		t.append(p)
		t.wg.Done()
	}
	close(t.done)
}

func (t *storeTier) append(p tierAppend) {
	if d := t.inj.At(chaos.PointStore); d.Fault != chaos.FaultNone {
		switch d.Fault {
		case chaos.FaultLatency, chaos.FaultStall:
			time.Sleep(d.Latency)
		case chaos.FaultError:
			return // this kernel stays memory-only; answers unaffected
		}
	}
	sp := t.rec.Start(obs.StageStoreAppend)
	err := t.st.Put(p.key, p.k)
	sp.End()
	if err != nil {
		return
	}
	t.ctr.Add(obs.CounterStoreAppends, 1)
	var t0 time.Time
	traced := t.rec.Enabled()
	if traced {
		t0 = time.Now()
	}
	if ran, _ := t.st.MaybeCompact(); ran && traced {
		t.rec.Observe(obs.StageStoreCompact, time.Since(t0))
	}
}

// close stops accepting publishes, drains every append already
// accepted (so they are durable), and waits for the publisher
// goroutine to exit. Idempotent; nil-safe.
func (t *storeTier) close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	// Every accepted publish has (or will have) completed its send —
	// run keeps receiving until the channel closes — so Wait
	// terminates, and afterwards no sender remains, making the close
	// of the channel safe.
	t.wg.Wait()
	close(t.pending)
	<-t.done
}
