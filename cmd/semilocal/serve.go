package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semilocal"
)

// Test hooks for the -serve-addr mode: the server binds a dynamic port
// and blocks until a signal, so the e2e tests need to learn the bound
// address and stop the server without process signals. Both are nil in
// production.
var (
	// serveReady, when non-nil, is called once with the bound address
	// after the listener is up.
	serveReady func(addr string)
	// serveStop, when non-nil, replaces the signal wait: closing the
	// channel shuts the server down.
	serveStop <-chan struct{}
)

// runServe runs the sharded HTTP serving tier (-serve-addr): N engine
// shards behind consistent hashing on the kernel-cache content key,
// sharing one stage recorder, chaos injector and (optionally) one
// persistent kernel store. The engine hardening flags (-max-queue,
// -retries, -deadline, -degrade-below, -chaos, -banded, -store-dir)
// apply per shard; -tenant-quota layers tier-wide per-tenant admission
// on top. Blocks until SIGINT/SIGTERM, then drains and prints the
// final counters.
func runServe(addr string, shards, tenantQuota int, opts batchOptions, out io.Writer) error {
	eopts, release, err := opts.engineOptions(semilocal.NewStageRecorder())
	if err != nil {
		return err
	}
	// Released after the server: Server.Close drains the shard engines'
	// pending appends first.
	defer release()
	srv, err := semilocal.NewServer(semilocal.ServerConfig{
		Shards:      shards,
		TenantQuota: tenantQuota,
		Engine:      eopts,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "# serving: %d shard(s) on http://%s (POST /v1/batch, /v1/stream; GET /metrics, /healthz)\n",
		srv.Shards(), ln.Addr())
	if serveReady != nil {
		serveReady(ln.Addr().String())
	}

	stop := serveStop
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		ch := make(chan struct{})
		go func() { <-sig; close(ch) }()
		stop = ch
	}
	select {
	case <-stop:
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	srv.Close()
	fmt.Fprintf(out, "# server: %s\n", srv.StatsLine())
	return nil
}
