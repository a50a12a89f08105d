// Command shufflenetd serves the adversary-as-a-service HTTP/JSON API
// (package internal/serve): submit a comparator network and query
// sortability verdicts, halver quality, the paper's Theorem 4.1
// adversary certificate, or the exact noncolliding optimum.
//
// Usage:
//
//	shufflenetd [-addr :8080] [-workers N] [-max-inflight N]
//	            [-timeout 30s] [-max-timeout 2m] [-memo BYTES]
//	            [-cache N] [-coalesce-window 2ms]
//	            [-journal run.jsonl] [-metrics] [-pprof ADDR]
//	            [-progress] [-progress-interval 10s]
//
// Endpoints: POST /v1/check, /v1/halver, /v1/adversary, /v1/optimal
// (JSON bodies; see README "Server"), GET /healthz, and the debug
// surface /debug/progress and /debug/vars on the server's own mux.
//
// Lifecycle: the listener is opened synchronously (a bad -addr fails
// fast), requests are served until SIGINT/SIGTERM, then the server
// drains in-flight requests (http.Server.Shutdown with a 10 s grace)
// and the run journal entry — request totals, shared-memo counters —
// is flushed. -journal additionally records one line per request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"shufflenet/internal/obs"
	"shufflenet/internal/serve"
)

// defaultInflight scales admission control with the machine but never
// below 8: on small containers the engines are brief enough that a
// couple of cores still serve a handful of requests well, and a floor
// of 2 would shed most of a modest burst as 429s.
func defaultInflight() int {
	if n := 2 * runtime.GOMAXPROCS(0); n > 8 {
		return n
	}
	return 8
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "per-request engine parallelism (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", defaultInflight(), "admission-control bound on concurrent requests (beyond it: immediate 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (body timeout_ms overrides)")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "ceiling on client-requested deadlines")
	memoBytes := flag.Int64("memo", 64<<20, "process-wide /v1/optimal transposition table budget in bytes (degenerate values clamp to core.MinMemoBytes)")
	cacheEntries := flag.Int("cache", 256, "response-cache entries, over all endpoints (the cache also holds at most 64 MiB of bodies)")
	coalesceWindow := flag.Duration("coalesce-window", 2*time.Millisecond, "how long /v1/check probes wait to share SWAR words with concurrent probes of the same network")
	journal := flag.String("journal", "", "append per-request records and the run entry to this JSONL path")
	metrics := flag.Bool("metrics", false, "dump the metric registry to stderr at shutdown")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof on this extra address")
	progress := flag.Bool("progress", false, "emit live progress heartbeats (stderr status line + journal records)")
	progressIvl := flag.Duration("progress-interval", 10*time.Second, "cadence of -progress snapshots")
	flag.Parse()

	cli, err := obs.StartCLI("shufflenetd", *journal, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shufflenetd:", err)
		os.Exit(1)
	}
	ctx := cli.SetupContext(0) // canceled by SIGINT/SIGTERM
	if *progress {
		cli.StartProgress(*progressIvl)
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MemoBytes:      *memoBytes,
		CacheEntries:   *cacheEntries,
		CoalesceWindow: *coalesceWindow,
		Journal:        cli.Journal(),
	})
	cli.Entry.Set("addr", *addr)
	cli.Entry.Set("max_inflight", *maxInflight)
	cli.Entry.Set("memo_bytes", *memoBytes)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shufflenetd:", err)
		cli.Entry.Set("error", err.Error())
		cli.Finish()
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Printf("shufflenetd: listening on %s\n", ln.Addr())

	var exit int
	select {
	case <-ctx.Done():
		// SIGINT/SIGTERM: drain in-flight requests, then leave. A hung
		// handler cannot stall shutdown past the grace period — its
		// request deadline and the Shutdown context both bound it.
		fmt.Fprintln(os.Stderr, "shufflenetd: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := hs.Shutdown(sctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "shufflenetd: shutdown:", err)
			cli.Entry.Set("shutdown_error", err.Error())
		}
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "shufflenetd:", err)
			cli.Entry.Set("error", err.Error())
			exit = 1
		}
	}
	cli.Entry.Set("memo", srv.MemoStats())
	cli.Finish()
	if exit == 0 {
		exit = cli.ExitCode()
		if exit == 130 {
			// A clean drain after SIGINT/SIGTERM is this daemon's normal
			// exit, not a failure.
			exit = 0
		}
	}
	os.Exit(exit)
}
