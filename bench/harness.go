package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semilocal"
	"semilocal/internal/obs"
)

// serverConfig is the serving configuration every workload runs
// against: two shards, the CLI's default solver, two batch workers per
// shard, 512 cached kernels per shard (split over 8 lock shards, so a
// 256-pair hot set never evicts), the banded fast path with automatic
// band budget, and the given store. rec is nil except in the traced
// run; no chaos and no tuning profile.
func serverConfig(st *semilocal.KernelStore, rec *obs.Recorder) semilocal.ServerConfig {
	return semilocal.ServerConfig{
		Shards: 2,
		Engine: semilocal.EngineOptions{
			Config:     semilocal.Config{Algorithm: semilocal.AntidiagBranchless},
			Workers:    2,
			MaxKernels: 512,
			Banded:     semilocal.BandedConfig{Enabled: true},
			Store:      st,
			Obs:        rec,
		},
	}
}

// storeConfig skips fsync: with it, the shared disk would be measured
// instead of the program.
var storeConfig = semilocal.StoreConfig{NoSync: true}

// fillerPair is one of the skewed pairs whose kernels pad the restart
// log: cheap to solve, but order 4096 to scan.
func fillerPair(seed int64, i int, sz sizes) pair {
	r := newRNG(seed^int64(i)*0x5851F42D4C957F2D, streamFiller)
	return pair{r.dna(sz.fillerM), r.dna(sz.fillerN)}
}

// buildLog writes the store log every setup reopens: the hot set's
// kernels, solved by the serving configuration, then the fillers. It is
// built untimed, once per run.
func buildLog(dir string, seed int64, sz sizes) error {
	st, err := semilocal.OpenStore(dir, storeConfig)
	if err != nil {
		return err
	}
	hot := hotPairs(seed, sz)
	cfg := serverConfig(nil, nil).Engine.Config
	err = parallel2(len(hot)+sz.fillers, func(i int) error {
		p := fillerPair(seed, i-len(hot), sz)
		if i < len(hot) {
			p = hot[i]
		}
		k, err := semilocal.Solve(p.a, p.b, cfg)
		if err != nil {
			return err
		}
		return st.Put(semilocal.StoreKeyOf(p.a, p.b), k)
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// live is one running server: store, tier and HTTP front end.
type live struct {
	store *semilocal.KernelStore
	srv   *semilocal.Server
	hs    *http.Server
	done  chan struct{} // closed when Serve returns
	url   string
}

// startServer opens the store in dir and serves a fresh tier over it on
// a loopback port.
func startServer(dir string, rec *obs.Recorder) (*live, error) {
	st, err := semilocal.OpenStore(dir, storeConfig)
	if err != nil {
		return nil, err
	}
	srv, err := semilocal.NewServer(serverConfig(st, rec))
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	l := &live{store: st, srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	return l, nil
}

// close stops the front end, then the tier (draining its store
// appends), then the store.
func (l *live) close() error {
	l.hs.Close()
	<-l.done
	l.srv.Close()
	return l.store.Close()
}

// clients is the load: one closed-loop client per core, each holding one
// keep-alive connection. The clients stand for batch pipelines that wait
// for every reply.
const clients = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one call and reads the whole response.
func post(c *http.Client, url string, body []byte) (status int, data []byte, err error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// setup restarts a server on the log in dir and brings it to serving:
// open the store, build the tier, listen, and answer the workload's warm
// calls (the hot set fills the cache from the store, not by solving) or
// one health check. It returns the live server and how long that took.
func setup(dir string, src *source, rec *obs.Recorder) (*live, time.Duration, error) {
	t := time.Now()
	l, err := startServer(dir, rec)
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer closeClient(c)
	fail := func(err error) (*live, time.Duration, error) {
		l.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	if len(src.warm) == 0 {
		resp, err := c.Get(l.url + "/healthz")
		if err != nil {
			return fail(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fail(fmt.Errorf("healthz: status %d", resp.StatusCode))
		}
	}
	for i, cl := range src.warm {
		status, data, err := post(c, l.url+src.path, cl.body)
		if err != nil {
			return fail(err)
		}
		var r reply
		if status != http.StatusOK || json.Unmarshal(data, &r) != nil {
			return fail(fmt.Errorf("warm call %d: status %d: %.200s", i, status, data))
		}
		if failed, err := cl.check(&r); err != nil || failed > 0 {
			return fail(fmt.Errorf("warm call %d: %d failed, %v", i, failed, err))
		}
	}
	return l, time.Since(t), nil
}

// record is one call as its client saw it.
type record struct {
	slice  int // -1 during warm-up
	lat    time.Duration
	ok     bool // HTTP 200 with a decodable body
	units  int
	failed int
}

// window is the measured part of one workload run: warm-up first (calls
// checked, not counted), then slices with the load paused between them
// for a reference probe.
type window struct {
	warm, slice time.Duration
	slices      int
	probe       probe
}

// newWindow splits a measured length into one-second slices (at least
// three), with p between them.
func newWindow(length time.Duration, p probe) window {
	n := max(3, int(length/time.Second))
	return window{warm: length / 5, slice: length / time.Duration(n), slices: n, probe: p}
}

// errWrong marks a wrong answer: the run must fail, not just count it.
type errWrong struct {
	seq int64
	err error
}

func (e *errWrong) Error() string {
	if e.seq < 0 {
		return fmt.Sprintf("wrong answer found after the window: %v", e.err)
	}
	return fmt.Sprintf("call %d: wrong answer: %v", e.seq, e.err)
}

// phase tells every client to call until end, filing calls under slice.
type phase struct {
	slice int
	end   time.Time
}

// measuredWindow is what drive saw.
type measuredWindow struct {
	recs   []record
	active []time.Duration // per slice: phase start to the last reply
	speed  []float64       // per slice: host speed from the probes on either side
	sample []byte          // one response body
}

// drive runs the closed loop against l: warm-up, then w.slices slices.
// Between slices every client has its reply, the server is idle, and a
// reference probe times the host; tick, when non-nil, runs there too (at
// boundaries 0..slices), so it samples a quiescent server. Calls are
// numbered from seqBase across clients. mangle, when non-nil, rewrites
// every response body before it is decoded, which is how the tests prove
// a wrong answer fails the run.
func drive(l *live, src *source, w window, seqBase int64, tick func(k int), mangle func([]byte) []byte) (*measuredWindow, error) {
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		mu     sync.Mutex
		wrong  error
		sample []byte
	)
	phases := make([]chan phase, clients)
	done := make(chan []record)
	for c := range phases {
		phases[c] = make(chan phase)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer closeClient(hc)
			seq := seqBase + int64(c)
			for ph := range phases[c] {
				var mine []record
				for !stop.Load() && time.Now().Before(ph.end) {
					cl := src.next(seq)
					rec := record{slice: ph.slice, units: src.units}
					start := time.Now()
					status, data, err := post(hc, l.url+src.path, cl.body)
					if mangle != nil {
						data = mangle(data)
					}
					var r reply
					rec.ok = err == nil && status == http.StatusOK && json.Unmarshal(data, &r) == nil
					rec.lat = time.Since(start)
					rec.failed = rec.units
					if rec.ok {
						failed, err := cl.check(&r)
						if err != nil {
							mu.Lock()
							if wrong == nil {
								wrong = &errWrong{seq, err}
							}
							mu.Unlock()
							stop.Store(true)
							break
						}
						rec.failed = failed
						if c == 0 && sample == nil {
							sample = data // only client 0 touches it until wg.Wait
						}
					}
					mine = append(mine, rec)
					seq += clients
				}
				done <- mine
			}
		}(c)
	}
	mw := &measuredWindow{}
	runPhase := func(ph phase) time.Duration {
		start := time.Now()
		for _, ch := range phases {
			ch <- ph
		}
		for range phases {
			mw.recs = append(mw.recs, <-done...)
		}
		return time.Since(start)
	}
	runPhase(phase{slice: -1, end: time.Now().Add(w.warm)})
	probes := []time.Duration{w.probe.time()}
	if tick != nil {
		tick(0)
	}
	for k := 0; k < w.slices && !stop.Load(); k++ {
		mw.active = append(mw.active, runPhase(phase{slice: k, end: time.Now().Add(w.slice)}))
		probes = append(probes, w.probe.time())
		mw.speed = append(mw.speed, w.probe.speedOf(probes[k], probes[k+1]))
		if tick != nil {
			tick(k + 1)
		}
	}
	for _, ch := range phases {
		close(ch)
	}
	wg.Wait()
	mw.sample = sample
	return mw, wrong
}

// outcome summarizes one measured window. Times are at reference speed.
type outcome struct {
	attempted, failed int64
	latencyMS         []float64 // every answered call
	perSlice          []float64 // answered units per slice
	rate              []float64 // answered units per second of load, per slice
	callNS            []float64 // client call time per slice, as measured (the benchmark's own spans)
	speed             []float64 // host speed per slice
}

func summarizeWindow(mw *measuredWindow) outcome {
	n := len(mw.active)
	o := outcome{perSlice: make([]float64, n), rate: make([]float64, n), callNS: make([]float64, n), speed: mw.speed}
	for _, r := range mw.recs {
		if r.slice < 0 || r.slice >= n {
			continue
		}
		o.attempted += int64(r.units)
		o.failed += int64(r.failed)
		if r.ok {
			o.latencyMS = append(o.latencyMS, r.lat.Seconds()*1e3*mw.speed[r.slice])
			o.perSlice[r.slice] += float64(r.units - r.failed)
			o.callNS[r.slice] += float64(r.lat)
		}
	}
	for k := range o.rate {
		o.rate[k] = o.perSlice[k] / mw.active[k].Seconds() / mw.speed[k]
	}
	return o
}

// throughput describes answered units per second across slices; its
// median is the reported throughput.
func (o outcome) throughput() summary { return summarize(o.rate) }

// heapLiveMB is the live heap in megabytes. The second collection
// empties what sync.Pool caches survive the first; pooled scratch is not
// live data, and whether a pool still held some made the figure bimodal.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
