package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"semilocal/internal/obs"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is what the ledger keeps beside a metric's value: the sample
// count and spread it was read from, and for ladder rows the heap
// allocations per call.
type detail struct {
	Samples     int      `json:"samples"`
	IQR         float64  `json:"iqr"`
	Beyond      int      `json:"beyond,omitempty"` // latency_p99_ms: samples ranked after it
	Tail        string   `json:"tail,omitempty"`   // highest percentile with ≥ minBeyond samples beyond it
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// runResult is one run of one workload: end-to-end metrics untraced, or
// per-layer metrics from the ladder and a traced run.
type runResult struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Speed is the run's median host speed factor: every time in
	// Metrics was multiplied by its interval's factor (see speed.go).
	Speed   float64                `json:"speed"`
	Metrics map[string]metricValue `json:"metrics"`
	Detail  map[string]detail      `json:"detail"`
}

func (r *runResult) put(name string, v float64, d detail) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	r.Detail[name] = d
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	work     string              // scratch directory for stores
	mangle   func([]byte) []byte // rewrites response bodies; tests only
}

// runOne runs one workload. A wrong answer returns the result, marked
// incorrect, together with an *errWrong naming the call.
func runOne(cfg runConfig) (*runResult, error) {
	src, err := newSource(cfg.workload, cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	dir, err := tempDir(cfg.work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logDir := filepath.Join(dir, "log")
	if err := buildLog(logDir, cfg.seed, cfg.sz); err != nil {
		return nil, fmt.Errorf("build store log: %w", err)
	}
	res := &runResult{
		Workload: cfg.workload, Trace: cfg.trace, Correct: true,
		Metrics: map[string]metricValue{}, Detail: map[string]detail{},
	}
	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		err = tracedRun(cfg, src, dir, logDir, length, res)
	} else {
		err = plainRun(cfg, src, logDir, length, res)
	}
	var wrong *errWrong
	if errors.As(err, &wrong) {
		res.Correct = false
		return res, err
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// measured drives one window on l, then closes l and runs the source's
// deferred checks. heap, when non-nil, receives the live heap while the
// server still holds its cache. It returns the window's outcome and one
// response body.
func measured(l *live, src *source, w window, seqBase int64, tick func(int), mangle func([]byte) []byte, heap *float64) (outcome, []byte, error) {
	mw, err := drive(l, src, w, seqBase, tick, mangle)
	if heap != nil {
		*heap = heapLiveMB()
	}
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err == nil && src.after != nil {
		if aerr := src.after(); aerr != nil {
			err = &errWrong{seq: -1, err: aerr}
		}
	}
	return summarizeWindow(mw), mw.sample, err
}

// plainRun measures the end-to-end metrics: setup_s over several
// restarts, then one window on the last server.
func plainRun(cfg runConfig, src *source, logDir string, length time.Duration, res *runResult) error {
	var l *live
	var setups []float64
	for i := 0; i < cfg.sz.setups; i++ {
		if l != nil {
			if err := l.close(); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		speed := cfg.sz.probe.around(func() { l, d, err = setup(logDir, src, nil) })
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds()*speed)
	}
	var heap float64
	o, _, err := measured(l, src, newWindow(length, cfg.sz.probe), 0, nil, cfg.mangle, &heap)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Speed = summarize(o.speed).Median
	s := summarize(setups)
	res.put("setup_s", s.Median, detail{Samples: s.N, IQR: s.IQR()})
	tp := o.throughput()
	res.put("throughput_rps", tp.Median, detail{Samples: tp.N, IQR: tp.IQR()})
	lat := sortedCopy(o.latencyMS)
	ls := summarize(lat)
	res.put("latency_p50_ms", ls.Median, detail{Samples: ls.N, IQR: ls.IQR(), Tail: tailOf(lat)})
	res.put("heap_live_mb", heap, detail{Samples: 1})
	return nil
}

// tracedRun measures the per-layer metrics: the ladder on the pristine
// restart log, an untraced window as the baseline, then a traced window
// on a fresh server whose stage recorder is sampled at every slice
// boundary.
func tracedRun(cfg runConfig, src *source, dir, logDir string, length time.Duration, res *runResult) error {
	rows, cleanup, err := ladder(cfg.seed, cfg.sz, dir, logDir)
	if err != nil {
		return err
	}
	budget := length / 40
	err = runLadder(rows, budget, cfg.sz.probe, res)
	cleanup()
	if err != nil {
		return err
	}

	w := newWindow(length/2, cfg.sz.probe)
	l, _, err := setup(logDir, src, nil)
	if err != nil {
		return err
	}
	base, sample, err := measured(l, src, w, 0, nil, cfg.mangle, nil)
	if err != nil {
		return err
	}

	rec := obs.New()
	if l, _, err = setup(logDir, src, rec); err != nil {
		return err
	}
	samples := make([]instruments, w.slices+1)
	tick := func(k int) { samples[k] = instruments{snap: rec.Snapshot(), stats: l.srv.Stats()} }
	// Call numbers continue far past the baseline window's: batch_cold's
	// pairs must stay never-seen, and the baseline stored its kernels in
	// the log the traced server reopened.
	traced, _, err := measured(l, src, w, 1<<40, tick, cfg.mangle, nil)
	if err != nil {
		return err
	}
	res.Attempted = base.attempted + traced.attempted
	res.Failed = base.failed + traced.failed
	res.Speed = summarize(append(append([]float64(nil), base.speed...), traced.speed...)).Median
	tracedMetrics(res, samples, traced)

	wr, err := wireRow(src.path, src.next(0).body, sample)
	if err != nil {
		return fmt.Errorf("wire row: %w", err)
	}
	if err := wr.check(); err != nil {
		return fmt.Errorf("wire row: %w", err)
	}
	var wire rowStats
	speed := cfg.sz.probe.around(func() { wire = measure(wr, "us", budget) })
	p50 := summarize(base.latencyMS).Median
	res.put("server.wire_share", safeDiv(wire.Median*speed/1e3, p50), detail{Samples: wire.N, IQR: safeDiv(wire.IQR()*speed/1e3, p50)})
	lat := sortedCopy(base.latencyMS)
	p99, beyond := percentile(lat, 9900)
	res.put("latency_p99_ms", p99, detail{Samples: len(lat), Beyond: beyond, Tail: tailOf(lat)})
	bt, tt := base.throughput(), traced.throughput()
	res.put("bench.trace_overhead_ratio", safeDiv(tt.Median, bt.Median), detail{Samples: w.slices})
	return nil
}

// tailOf names the highest percentile of sorted latencies with at least
// minBeyond samples beyond it.
func tailOf(sorted []float64) string {
	if bp, v, ok := tail(sorted); ok {
		return fmt.Sprintf("p%g=%.4fms", float64(bp)/100, v)
	}
	return "none"
}

// tempDir makes a private scratch directory under work.
func tempDir(work string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, "run-")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// instruments is the server's instrumentation at one slice boundary.
type instruments struct {
	snap  obs.Snapshot
	stats map[string]int64
}

// tracedMetrics reads every traced per-layer metric as a median over
// slices: stage time per answered unit (at reference speed), counters
// per unit, and ratios of counter deltas. Slices without the metric's denominator are skipped; a
// metric with none anywhere reads 0.
func tracedMetrics(res *runResult, samples []instruments, o outcome) {
	put := func(name string, f func(a, b instruments, k int) (float64, bool)) {
		var xs []float64
		for k := 0; k+1 < len(samples); k++ {
			if v, ok := f(samples[k], samples[k+1], k); ok {
				xs = append(xs, v)
			}
		}
		s := summarize(xs)
		res.put(name, s.Median, detail{Samples: s.N, IQR: s.IQR()})
	}
	stage := func(name string, st obs.Stage) {
		put(name, func(a, b instruments, k int) (float64, bool) {
			u := o.perSlice[k]
			if u == 0 {
				return 0, false
			}
			return float64(b.snap.Stages[st].Sum-a.snap.Stages[st].Sum) / 1e3 / u * o.speed[k], true
		})
	}
	counter := func(name string, c obs.CounterID) {
		put(name, func(a, b instruments, k int) (float64, bool) {
			u := o.perSlice[k]
			if u == 0 {
				return 0, false
			}
			return float64(b.snap.Counters[c]-a.snap.Counters[c]) / u, true
		})
	}
	ratio := func(name string, num func(p instruments) int64, den func(p instruments) int64) {
		put(name, func(a, b instruments, _ int) (float64, bool) {
			d := den(b) - den(a)
			if d == 0 {
				return 0, false
			}
			return float64(num(b)-num(a)) / float64(d), true
		})
	}
	stat := func(names ...string) func(p instruments) int64 {
		return func(p instruments) int64 {
			var n int64
			for _, name := range names {
				n += p.stats[name]
			}
			return n
		}
	}
	ctr := func(cs ...obs.CounterID) func(p instruments) int64 {
		return func(p instruments) int64 {
			var n int64
			for _, c := range cs {
				n += p.snap.Counters[c]
			}
			return n
		}
	}

	stage("server.server_request_us_per_unit", obs.StageServerRequest)
	stage("server.server_route_us_per_unit", obs.StageServerRoute)
	stage("query.queue_wait_us_per_unit", obs.StageQueueWait)
	stage("query.cache_hit_us_per_unit", obs.StageCacheHit)
	stage("query.cache_miss_us_per_unit", obs.StageCacheMiss)
	stage("query.prepare_us_per_unit", obs.StagePrepare)
	stage("query.query_us_per_unit", obs.StageQuery)
	ratio("query.cache_hit_ratio", stat("cache_hits"), stat("cache_hits", "cache_misses", "cache_deduped"))
	ratio("query.band_fallback_ratio", ctr(obs.CounterBandFallbacks), ctr(obs.CounterBandFallbacks, obs.CounterBandedRequests))
	put("query.evictions_per_unit", func(a, b instruments, k int) (float64, bool) {
		u := o.perSlice[k]
		return safeDiv(float64(b.stats["cache_evictions"]-a.stats["cache_evictions"]), u), u > 0
	})
	stage("core.solve_us_per_unit", obs.StageSolve)
	counter("core.comb_cells_per_unit", obs.CounterCombCells)
	stage("store.store_read_us_per_unit", obs.StageStoreRead)
	stage("store.store_append_us_per_unit", obs.StageStoreAppend)
	ratio("store.store_hit_ratio", ctr(obs.CounterStoreHits), ctr(obs.CounterStoreHits, obs.CounterStoreMisses))
	stage("banded.band_probe_us_per_unit", obs.StageBandProbe)
	stage("banded.banded_bfs_us_per_unit", obs.StageBandedBFS)
	stage("stream.stream_append_us_per_unit", obs.StageStreamAppend)
	stage("stream.stream_compose_us_per_unit", obs.StageStreamCompose)
	stage("stream.stream_group_append_us_per_unit", obs.StageStreamGroupAppend)
	stage("stream.stream_group_fanout_us_per_unit", obs.StageStreamGroupFanout)
	// Leaf solves are the only solves a stream group performs, so shares
	// over shares plus solves is the fraction of per-pattern leaf work the
	// shared text pass avoided.
	ratio("stream.leaf_share_ratio", ctr(obs.CounterStreamGroupShares), func(p instruments) int64 {
		return p.snap.Counters[obs.CounterStreamGroupShares] + int64(p.snap.Stages[obs.StageSolve].Count)
	})
	counter("stream.compositions_per_unit", obs.CounterStreamComposes)
	put("bench.server_share", func(a, b instruments, k int) (float64, bool) {
		c := o.callNS[k]
		return safeDiv(float64(b.snap.Stages[obs.StageServerRequest].Sum-a.snap.Stages[obs.StageServerRequest].Sum), c), c > 0
	})
}
