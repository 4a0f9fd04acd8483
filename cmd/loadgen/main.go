// Command loadgen is the closed-loop load harness for the sharded
// serving tier: N client goroutines drive /v1/batch over real HTTP,
// each waiting for its response before issuing the next call
// (closed-loop, so the tier is never asked for more concurrency than
// -clients), optionally paced to an aggregate target QPS. The workload
// is a configurable cache hit/miss mix: with probability
// -hit-permille/1000 a request draws from a fixed hot set of pairs,
// otherwise it fabricates a never-seen pair (a guaranteed kernel
// solve). Per-request latencies accumulate into the observability
// layer's mergeable power-of-two histograms, and the run ends with a
// latency-SLO report: achieved QPS, quantiles, the fraction of
// requests inside -slo, and the tier's cache/reroute counters.
//
// Point it at a running server with -target, or let it self-host a
// tier in process (-shards, -kernels) for reproducible scaling
// experiments:
//
//	go run ./cmd/loadgen -shards 4 -clients 8 -duration 5s \
//	    -hit-permille 900 -hot 48 -size 256
//
// (see EXPERIMENTS.md for the recorded 1-vs-4-shard runs).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"semilocal"
	"semilocal/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	target      string
	shards      int
	kernels     int
	clients     int
	duration    time.Duration
	qps         int
	hitPermille int
	hot         int
	size        int
	batch       int
	slo         time.Duration
	seed        int64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.target, "target", "", "base URL of a running serving tier (empty = self-host in process)")
	fs.IntVar(&cfg.shards, "shards", 1, "self-host: engine shard count")
	fs.IntVar(&cfg.kernels, "kernels", 16, "self-host: cached kernels per shard (the horizontal-capacity knob)")
	fs.IntVar(&cfg.clients, "clients", 8, "concurrent closed-loop clients")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "run length")
	fs.IntVar(&cfg.qps, "qps", 0, "aggregate target request rate (0 = unpaced closed loop)")
	fs.IntVar(&cfg.hitPermille, "hit-permille", 900, "probability (per mille) a request draws from the hot set instead of a fresh pair")
	fs.IntVar(&cfg.hot, "hot", 32, "hot-set size in distinct pairs")
	fs.IntVar(&cfg.size, "size", 256, "bytes per input string")
	fs.IntVar(&cfg.batch, "batch", 1, "requests per HTTP call")
	fs.DurationVar(&cfg.slo, "slo", 50*time.Millisecond, "per-call latency objective for the report")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.clients < 1 || cfg.batch < 1 || cfg.hot < 1 || cfg.size < 1 {
		return fmt.Errorf("-clients, -batch, -hot and -size must be positive")
	}
	if cfg.hitPermille < 0 || cfg.hitPermille > 1000 {
		return fmt.Errorf("-hit-permille %d out of [0,1000]", cfg.hitPermille)
	}

	base := cfg.target
	var srv *semilocal.Server
	if base == "" {
		var err error
		srv, err = semilocal.NewServer(semilocal.ServerConfig{
			Shards: cfg.shards,
			Engine: semilocal.EngineOptions{MaxKernels: cfg.kernels},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "# self-hosting %d shard(s) × %d kernels at %s\n", cfg.shards, cfg.kernels, base)
	}
	return drive(cfg, base, srv, out)
}

// pair is one input pair in its wire spelling.
type pair struct{ a, b string }

// makePair fabricates pair i deterministically from the seed: random
// payloads with a small shared prefix so scores are non-trivial.
func makePair(seed int64, i int, size int) pair {
	rng := rand.New(rand.NewSource(seed ^ int64(i)*0x9e3779b9))
	buf := make([]byte, 2*size)
	for j := range buf {
		buf[j] = 'a' + byte(rng.Intn(26))
	}
	return pair{a: string(buf[:size]), b: string(buf[size:])}
}

// clientReport is one client's half of the closed loop: its latency
// histogram and call/error tallies.
type clientReport struct {
	hist      obs.Histogram
	calls     int64
	errs      int64
	reqErrs   int64
	withinSLO int64
}

func drive(cfg config, base string, srv *semilocal.Server, out io.Writer) error {
	hotSet := make([]pair, cfg.hot)
	for i := range hotSet {
		hotSet[i] = makePair(cfg.seed, i, cfg.size)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var fresh atomic.Int64 // global counter so miss pairs never repeat

	// Pacing: each client owns an equal slice of the target rate and
	// spaces its calls by batch/(qps/clients); 0 disables pacing.
	var interval time.Duration
	if cfg.qps > 0 {
		interval = time.Duration(int64(time.Second) * int64(cfg.batch) * int64(cfg.clients) / int64(cfg.qps))
	}

	deadline := time.Now().Add(cfg.duration)
	reports := make([]clientReport, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rep := &reports[c]
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			next := time.Now()
			for time.Now().Before(deadline) {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				reqs := make([]map[string]any, cfg.batch)
				for i := range reqs {
					var p pair
					if rng.Intn(1000) < cfg.hitPermille {
						p = hotSet[rng.Intn(len(hotSet))]
					} else {
						p = makePair(^cfg.seed, int(fresh.Add(1))+1<<30, cfg.size)
					}
					reqs[i] = map[string]any{"a": p.a, "b": p.b, "kind": "score"}
				}
				body, err := json.Marshal(map[string]any{"tenant": fmt.Sprintf("load-%d", c), "requests": reqs})
				if err != nil {
					rep.errs++
					continue
				}
				start := time.Now()
				resp, err := client.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
				lat := time.Since(start)
				rep.calls++
				if err != nil {
					rep.errs++
					continue
				}
				var br struct {
					Results []struct {
						Error string `json:"error"`
					} `json:"results"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					rep.errs++
					continue
				}
				rep.hist.Observe(lat)
				if lat <= cfg.slo {
					rep.withinSLO++
				}
				for _, r := range br.Results {
					if r.Error != "" {
						rep.reqErrs++
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Merge the per-client histograms — the mergeable-snapshot property
	// the obs layer guarantees.
	var merged obs.HistSnapshot
	var calls, errs, reqErrs, within int64
	for i := range reports {
		merged = merged.Merge(reports[i].hist.Snapshot())
		calls += reports[i].calls
		errs += reports[i].errs
		reqErrs += reports[i].reqErrs
		within += reports[i].withinSLO
	}
	if calls == 0 {
		return fmt.Errorf("no calls completed in %v", cfg.duration)
	}
	qps := float64(calls) * float64(cfg.batch) / cfg.duration.Seconds()
	fmt.Fprintf(out, "# loadgen: clients=%d batch=%d hit-permille=%d hot=%d size=%d duration=%v\n",
		cfg.clients, cfg.batch, cfg.hitPermille, cfg.hot, cfg.size, cfg.duration)
	fmt.Fprintf(out, "calls=%d requests=%d qps=%.0f call-errors=%d request-errors=%d\n",
		calls, calls*int64(cfg.batch), qps, errs, reqErrs)
	fmt.Fprintf(out, "latency p50=%v p90=%v p99=%v max=%v mean=%v\n",
		merged.Quantile(0.50), merged.Quantile(0.90), merged.Quantile(0.99),
		merged.Quantile(1.0), merged.Mean())
	fmt.Fprintf(out, "slo(%v)=%.1f%%\n", cfg.slo, 100*float64(within)/float64(calls))
	if srv != nil {
		stats := srv.Stats()
		fmt.Fprintf(out, "tier: hits=%d misses=%d evictions=%d sheds=%d reroutes=%d tenant-rejects=%d\n",
			stats[obs.CounterCacheHits.String()], stats[obs.CounterCacheMisses.String()],
			stats[obs.CounterCacheEvictions.String()], stats[obs.CounterSheds.String()],
			stats[obs.CounterServerReroutes.String()], stats[obs.CounterTenantRejects.String()])
	}
	return nil
}
