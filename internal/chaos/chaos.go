// Package chaos is the fault-injection subsystem of this repository: a
// seeded, deterministic injector threaded through the kernel solvers
// and the query serving layer, so the chaos test suite (and operators
// reproducing an incident) can force slow solves, transient solve
// errors, context cancellations, cache eviction storms, and worker
// stalls at will — and replay the exact same schedule from the seed.
//
// The cardinal design rule mirrors internal/obs: a nil *Injector is the
// disabled injector. Every method on a nil receiver is a no-op that
// performs zero allocations, takes no clock reading, and touches no
// shared memory, so instrumented hot paths cost nothing when chaos is
// off (the production configuration).
//
// Determinism: every injection point keeps an atomic arrival counter,
// and the decision for the n-th arrival at point p is a pure function
// of (seed, rule, p, n) — a splitmix64 hash compared against the rule's
// per-mille probability. Which arrival numbers fault is therefore
// identical across runs of the same seed; under concurrency only the
// assignment of arrival numbers to goroutines can vary, never the
// schedule itself. The replay golden test pins this.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semilocal/internal/obs"
)

// Point names one instrumented place where faults can be injected.
type Point uint8

const (
	// PointSolveStart fires before a kernel solve runs (latency, error).
	PointSolveStart Point = iota
	// PointSolveFinish fires after a solve computes its kernel but
	// before the result is returned (latency, error) — it forces the
	// "work done, then lost" failure mode.
	PointSolveFinish
	// PointAcquire fires on entry to a cache acquire (latency, cancel,
	// evict).
	PointAcquire
	// PointPublish fires when a finished solve publishes its session
	// into the cache (latency, evict — the eviction storm).
	PointPublish
	// PointQuery fires before a query is answered on a prepared session
	// (latency, cancel).
	PointQuery
	// PointWorker fires when a batch worker picks up a request (stall,
	// latency).
	PointWorker
	// PointStream fires on entry to a streaming session mutation —
	// append or slide — before any state changes (latency, error), so
	// an injected failure leaves the session on its previous generation
	// and a retry of the same chunk is meaningful.
	PointStream
	// PointBanded fires when the engine dispatcher considers the banded
	// diagonal-BFS fast path for a request (latency, error). An
	// injected error forces the request onto the kernel fallback — the
	// answer stays bit-identical, only the routing changes, which is
	// exactly what the chaos metamorphic suite asserts.
	PointBanded
	// PointStore fires when the serving path consults the persistent
	// kernel store — before a store read on a cache miss and before an
	// asynchronous store append (latency, error, stall). An injected
	// fault degrades, never corrupts: a failed read falls through to an
	// ordinary solve-from-scratch, a failed append skips persisting
	// that one kernel, and answers stay bit-identical either way.
	PointStore
	// PointShard fires when the sharded serving tier routes a request to
	// its home engine shard (latency, error). An injected error "kills"
	// the home shard for that arrival — the router takes the healthy
	// shard of next-highest rendezvous weight, so the tier degrades to a
	// colder cache instead of failing; injected latency models one slow
	// shard. Answers stay bit-identical either way.
	PointShard
	// NumPoints bounds the Point enum.
	NumPoints
)

var pointNames = [NumPoints]string{
	"solve", "solve-finish", "acquire", "publish", "query", "worker",
	"stream", "banded", "store", "shard",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return "unknown"
}

// ParsePoint resolves the CLI/spec name of a point.
func ParsePoint(s string) (Point, error) {
	for p := Point(0); p < NumPoints; p++ {
		if pointNames[p] == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown point %q", s)
}

// Fault names one kind of injected failure.
type Fault uint8

const (
	// FaultNone is the zero decision: nothing injected.
	FaultNone Fault = iota
	// FaultLatency sleeps the rule's Latency at the point.
	FaultLatency
	// FaultError makes the point fail with a transient injected error
	// (solve, stream and banded points; at the banded point the serving
	// path absorbs the failure by falling back to the kernel).
	FaultError
	// FaultCancel makes the point behave as if the request's context
	// had been cancelled (acquire and query points).
	FaultCancel
	// FaultEvict flushes resident cache entries — an eviction storm
	// (acquire and publish points).
	FaultEvict
	// FaultStall parks a pool worker for the rule's Latency before it
	// processes its request (worker point); the serving path reacts by
	// degrading the request to the sequential algorithm variant.
	FaultStall
	// NumFaults bounds the Fault enum.
	NumFaults
)

var faultNames = [NumFaults]string{
	"none", "latency", "error", "cancel", "evict", "stall",
}

func (f Fault) String() string {
	if f < NumFaults {
		return faultNames[f]
	}
	return "unknown"
}

// ParseFault resolves the CLI/spec name of a fault kind.
func ParseFault(s string) (Fault, error) {
	for f := FaultNone + 1; f < NumFaults; f++ {
		if faultNames[f] == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault %q", s)
}

// validAt reports whether fault f makes sense at point p; New rejects
// rules that would silently never matter (e.g. evicting from inside a
// solve).
func (f Fault) validAt(p Point) bool {
	switch f {
	case FaultLatency:
		return true
	case FaultError:
		return p == PointSolveStart || p == PointSolveFinish || p == PointStream || p == PointBanded || p == PointStore || p == PointShard
	case FaultCancel:
		return p == PointAcquire || p == PointQuery
	case FaultEvict:
		return p == PointAcquire || p == PointPublish
	case FaultStall:
		return p == PointWorker || p == PointStore
	}
	return false
}

// Rule is one injection behavior: at Point, with probability
// PerMille/1000 per arrival, inject Fault. The zero Latency is allowed
// for FaultLatency/FaultStall (a pure scheduling yield point).
type Rule struct {
	Point    Point
	Fault    Fault
	PerMille int           // firing probability in 1/1000 of arrivals
	Latency  time.Duration // sleep for FaultLatency / FaultStall
	MaxCount int64         // at most this many firings; 0 = unlimited
}

// Config configures an Injector.
type Config struct {
	// Seed drives the deterministic schedule; the same seed and rules
	// reproduce the same decisions for the same arrival numbers.
	Seed uint64
	// Rules are evaluated in order per arrival; the first rule that
	// fires wins (at most one fault per arrival).
	Rules []Rule
	// Record keeps the full injection schedule in memory for Schedule —
	// test-only; leave false in long-lived injectors.
	Record bool
	// Obs, when non-nil, counts every fired injection into
	// obs.CounterFaultsInjected.
	Obs *obs.Recorder
}

// Decision is the outcome of consulting one injection point. The zero
// Decision means "no fault".
type Decision struct {
	Fault   Fault
	Latency time.Duration
}

// Event is one recorded injection: the Seq-th arrival at Point was hit
// by Rule (an index into Config.Rules) injecting Fault.
type Event struct {
	Point Point
	Seq   int64
	Rule  int
	Fault Fault
}

func (e Event) String() string {
	return fmt.Sprintf("%s#%d rule%d %s", e.Point, e.Seq, e.Rule, e.Fault)
}

// rule is a compiled Rule plus its firing budget.
type rule struct {
	Rule
	idx   int          // position in Config.Rules, for Event.Rule
	fired atomic.Int64 // firings so far, bounded by MaxCount
}

// Injector decides, deterministically from its seed, which arrivals at
// which points are hit by which faults. All methods are nil-safe and
// safe for concurrent use.
type Injector struct {
	seed    uint64
	byPoint [NumPoints][]*rule
	arrival [NumPoints]atomic.Int64
	total   atomic.Int64
	rec     *obs.Recorder

	mu       sync.Mutex
	schedule []Event // nil unless Config.Record
	record   bool
}

// New compiles a config into an injector, rejecting rules whose fault
// kind can never fire at their point or whose probability is out of
// [0, 1000].
func New(cfg Config) (*Injector, error) {
	in := &Injector{seed: cfg.Seed, rec: cfg.Obs, record: cfg.Record}
	for i, r := range cfg.Rules {
		if r.Point >= NumPoints {
			return nil, fmt.Errorf("chaos: rule %d: unknown point %d", i, r.Point)
		}
		if r.Fault == FaultNone || r.Fault >= NumFaults {
			return nil, fmt.Errorf("chaos: rule %d: unknown fault %d", i, r.Fault)
		}
		if !r.Fault.validAt(r.Point) {
			return nil, fmt.Errorf("chaos: rule %d: fault %s cannot fire at point %s", i, r.Fault, r.Point)
		}
		if r.PerMille < 0 || r.PerMille > 1000 {
			return nil, fmt.Errorf("chaos: rule %d: per-mille %d out of [0,1000]", i, r.PerMille)
		}
		if r.Latency < 0 {
			return nil, fmt.Errorf("chaos: rule %d: negative latency %v", i, r.Latency)
		}
		in.byPoint[r.Point] = append(in.byPoint[r.Point], &rule{Rule: r, idx: i})
	}
	return in, nil
}

// Enabled reports whether the injector injects anything.
func (in *Injector) Enabled() bool { return in != nil }

// At registers one arrival at point p and returns the injection
// decision for it. On a nil injector it returns the zero Decision
// without touching anything.
func (in *Injector) At(p Point) Decision {
	if in == nil {
		return Decision{}
	}
	rules := in.byPoint[p]
	if len(rules) == 0 {
		return Decision{}
	}
	seq := in.arrival[p].Add(1) - 1
	for _, r := range rules {
		if !in.fires(p, r, seq) {
			continue
		}
		if r.MaxCount > 0 && r.fired.Add(1) > r.MaxCount {
			continue // budget exhausted; later arrivals skip this rule
		}
		in.total.Add(1)
		in.rec.Add(obs.CounterFaultsInjected, 1)
		if in.record {
			in.mu.Lock()
			in.schedule = append(in.schedule, Event{Point: p, Seq: seq, Rule: r.idx, Fault: r.Fault})
			in.mu.Unlock()
		}
		return Decision{Fault: r.Fault, Latency: r.Latency}
	}
	return Decision{}
}

// Fire is At with the delay applied: it registers one arrival at p,
// sleeps for the decision's Latency when the fault is a latency or a
// stall, and returns the fault, so a call site keeps only its own
// reaction (error, cancel, evict, stall). Error, cancel and evict
// decisions never sleep. On a nil injector it returns FaultNone
// without touching anything.
func (in *Injector) Fire(p Point) Fault {
	d := in.At(p)
	if d.Fault == FaultLatency || d.Fault == FaultStall {
		time.Sleep(d.Latency)
	}
	return d.Fault
}

// fires is the pure decision function: does rule r hit the seq-th
// arrival at point p under this seed?
func (in *Injector) fires(p Point, r *rule, seq int64) bool {
	if r.PerMille >= 1000 {
		return true
	}
	if r.PerMille <= 0 {
		return false
	}
	h := splitmix64(in.seed ^ uint64(p)<<56 ^ uint64(r.idx)<<48 ^ uint64(seq))
	return h%1000 < uint64(r.PerMille)
}

// Fired returns the total number of injections so far.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// Arrivals returns how many times point p has been consulted.
func (in *Injector) Arrivals(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.arrival[p].Load()
}

// Schedule returns a copy of the recorded injection schedule (empty
// unless the injector was built with Config.Record).
func (in *Injector) Schedule() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.schedule))
	copy(out, in.schedule)
	return out
}

// ErrInjected is the sentinel every injected error matches through
// errors.Is; injected errors are transient (IsTransient in the query
// package reports true), so the serving path's retry policy applies.
var ErrInjected = errors.New("chaos: injected fault")

// injectedError carries the point an error was injected at. It is
// transient by construction: the fault exists only in the injection
// schedule, not in the input, so retrying is meaningful.
type injectedError struct {
	point Point
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s", e.point)
}

func (e *injectedError) Is(target error) bool { return target == ErrInjected }

func (e *injectedError) Transient() bool { return true }

// Injected returns the typed transient error for a FaultError decision
// at point p.
func Injected(p Point) error { return &injectedError{point: p} }

// splitmix64 is the standard 64-bit finalizing mixer (Vigna); a full-
// avalanche hash is what makes per-arrival decisions independent even
// though seeds, points and sequence numbers are tiny integers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
