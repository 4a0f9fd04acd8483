package main

import (
	"expvar"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"sync"

	"semilocal"
	"semilocal/internal/obs"
)

// newMetricsMux wires the -serve-batch observability endpoints:
//
//	/metrics       Prometheus text exposition (stage histograms, work
//	               counters, engine cache counters)
//	/debug/vars    expvar JSON (the same values flattened under the
//	               "semilocal" variable)
//	/debug/pprof/  the standard pprof handlers; CPU profiles carry the
//	               engine's batch-solve labels
func newMetricsMux(rec *semilocal.StageRecorder, engine *semilocal.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteMetrics(w, rec.Snapshot(), engine.Stats())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

var (
	expvarMu  sync.Mutex
	expvarCur func() map[string]int64
)

// installExpvar points the process-wide expvar variable "semilocal" at
// the given snapshot function. expvar.Publish panics on duplicate
// names, so the variable is registered once and re-pointed for every
// subsequent server (tests start several in one process).
func installExpvar(f func() map[string]int64) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	first := expvarCur == nil
	expvarCur = f
	if first {
		expvar.Publish("semilocal", expvar.Func(func() any {
			expvarMu.Lock()
			defer expvarMu.Unlock()
			return expvarCur()
		}))
	}
}

// obsVars flattens the recorder snapshot and engine counters into one
// name → value map for expvar.
func obsVars(rec *semilocal.StageRecorder, engine *semilocal.Engine) func() map[string]int64 {
	return func() map[string]int64 {
		m := engine.Stats()
		for k, v := range rec.Snapshot().Vars() {
			m[k] = v
		}
		return m
	}
}

// writeMetricsTo prints one Prometheus exposition of the current state
// (the -metrics - mode).
func writeMetricsTo(w io.Writer, rec *semilocal.StageRecorder, engine *semilocal.Engine) {
	obs.WriteMetrics(w, rec.Snapshot(), engine.Stats())
}

// metricsServer is the HTTP side of -metrics: it lives for the duration
// of the batch, so a long-running -serve-batch can be scraped and
// profiled while it works.
type metricsServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

func startMetricsServer(addr string, rec *semilocal.StageRecorder, engine *semilocal.Engine) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	installExpvar(obsVars(rec, engine))
	ms := &metricsServer{
		ln:   ln,
		srv:  &http.Server{Handler: newMetricsMux(rec, engine)},
		done: make(chan struct{}),
	}
	go func() {
		ms.srv.Serve(ln)
		close(ms.done)
	}()
	return ms, nil
}

func (ms *metricsServer) addr() string { return ms.ln.Addr().String() }

func (ms *metricsServer) stop() {
	ms.srv.Close()
	<-ms.done
}
