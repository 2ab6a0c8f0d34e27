// Command rasengan-serve runs the long-lived Rasengan solve service: an
// HTTP/JSON API over a bounded job queue, a content-addressed result
// cache, and Prometheus metrics.
//
// Usage:
//
//	rasengan-serve -addr :8080
//	rasengan-serve -addr :8080 -executors 4 -queue 128 -cache 512
//	rasengan-serve -addr :8080 -data-dir /var/lib/rasengan        # durable jobs
//	rasengan-serve -addr :8080 -debug-addr 127.0.0.1:6060   # pprof + expvar + /debug/events
//	rasengan-serve -addr :8080 -stall-window 30s -solve-slo 2m    # anomaly auto-capture
//
// API:
//
//	POST /v1/solve            submit a problem spec (optionally wait inline)
//	POST /v1/solve/batch      submit up to -max-batch specs in one request
//	GET  /v1/jobs             list jobs (?state=done&limit=50&offset=0)
//	GET  /v1/jobs/{id}        poll job status / fetch the result (live jobs carry a progress field)
//	GET  /v1/jobs/{id}/events stream live per-iteration progress (Server-Sent Events)
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /v1/problems         list generator families × scales
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text format
//
// With -data-dir set, accepted jobs are journaled to a write-ahead log
// and result payloads to a content-addressed blob store under that
// directory. After a crash or restart the journal replays: finished
// jobs stay queryable (and re-seed the result cache), interrupted jobs
// are re-enqueued under their original ids, and the warm-start
// parameter store survives. Without the flag the server is fully
// in-memory, as before.
//
// Example:
//
//	curl -s localhost:8080/v1/solve -d \
//	  '{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":1,"max_iter":50},"wait_ms":30000}'
//
// On SIGINT/SIGTERM the server stops accepting work (503), finishes
// every accepted job, and exits cleanly.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"rasengan/internal/core"
	"rasengan/internal/parallel"
	"rasengan/internal/service"
)

// applyFaultInjection wires the RASENGAN_FAULT chaos switch, used by the
// CI smoke test (and manual drills) to prove the service survives solver
// failures. Modes:
//
//	panic-once      the first solve iteration panics; later solves run clean
//	slow-iteration  every solve iteration sleeps ~5ms, so short deadlines fire
//
// Unset means no fault hook — production runs never pay for this.
func applyFaultInjection(mode string, logger *slog.Logger) {
	switch mode {
	case "":
	case "panic-once":
		var once sync.Once
		core.SetFaultHook(func(stage string) {
			if stage == core.FaultIteration {
				// sync.Once marks itself done even when f panics, so
				// exactly one job is poisoned.
				once.Do(func() { panic("RASENGAN_FAULT=panic-once injected panic") })
			}
		})
		logger.Info("fault injection armed", "mode", "panic-once")
	case "slow-iteration":
		core.SetFaultHook(func(stage string) {
			if stage == core.FaultIteration {
				time.Sleep(5 * time.Millisecond)
			}
		})
		logger.Info("fault injection armed", "mode", "slow-iteration")
	default:
		logger.Error("unknown RASENGAN_FAULT mode (known: panic-once, slow-iteration)", "mode", mode)
		os.Exit(1)
	}
}

// debugHandler builds the opt-in diagnostics mux: net/http/pprof,
// expvar, and the flight-recorder event dump. It is only ever bound to
// -debug-addr — never merged into the public API handler, so profiles
// and process internals stay off the serving port.
func debugHandler(srv *service.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/events", srv.DebugEventsHandler())
	return mux
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rasengan-serve: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional diagnostics listener (net/http/pprof + /debug/vars); bind to localhost")
		queueCap  = flag.Int("queue", 64, "job queue capacity (full queue answers 429 with a computed Retry-After)")
		executors = flag.Int("executors", 2, "jobs solved concurrently (each fans onto the shared worker pool)")
		budget    = flag.Int("worker-budget", 0, "total compute budget leased across executing solves (0 = worker-pool width); 1 job gets all of it, N jobs ~1/N each")
		maxBatch  = flag.Int("max-batch", 16, "largest accepted POST /v1/solve/batch item count")
		shedMark  = flag.Float64("shed-watermark", 0, "queue fraction in (0,1) past which new work is shed with 429 before the queue is literally full; 0 disables")
		cacheSize = flag.Int("cache", 256, "result-cache entries (negative disables caching)")
		timeout   = flag.Duration("timeout", 60*time.Second, "default per-job deadline")
		maxIter   = flag.Int("max-iters", 300, "cap on per-request optimizer iterations")
		maxVars   = flag.Int("max-vars", 40, "largest accepted problem width in variables")
		drainWait = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for accepted jobs")
		engine    = flag.String("engine", "", "execution engine for every solve: map or compiled (default: compiled; not part of the cache key)")
		dataDir   = flag.String("data-dir", "", "durable state directory (job journal, result blobs, warm-start store); empty = in-memory only")
		retention = flag.Int("retention", 1024, "terminal jobs kept queryable via GET /v1/jobs")
		warmCap   = flag.Int("warm-capacity", 4096, "warm-start parameter vectors retained (with -data-dir)")
		eventRing = flag.Int("event-ring", 0, "flight-recorder event ring capacity (0 = 1024); dump at /debug/events on -debug-addr")
		maxSSE    = flag.Int("max-event-streams", 0, "concurrent GET /v1/jobs/{id}/events SSE subscribers (0 = 32)")
		stallWin  = flag.Duration("stall-window", 0, "snapshot a running solve that publishes no iteration progress for this long (0 disables the stall watchdog)")
		solveSLO  = flag.Duration("solve-slo", 0, "snapshot a solve still running past this latency SLO (0 disables)")
		captDir   = flag.String("capture-dir", "", "anomaly capture directory (default: <data-dir>/captures; empty without -data-dir counts anomalies but writes no files)")
	)
	wf := parallel.AddFlags(flag.CommandLine)
	flag.Parse()

	// One structured JSON log stream for the process and the service: job
	// lifecycle records (job_id/spec_hash fields) interleave with server
	// lifecycle records and stay machine-parseable.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if _, err := wf.Apply(); err != nil {
		fatal("invalid workers flag", "error", err.Error())
	}
	if *queueCap < 1 {
		fatal("-queue must be >= 1", "got", *queueCap)
	}
	if *executors < 1 {
		fatal("-executors must be >= 1", "got", *executors)
	}
	if *budget < 0 {
		fatal("-worker-budget must be >= 0", "got", *budget)
	}
	if *maxBatch < 1 {
		fatal("-max-batch must be >= 1", "got", *maxBatch)
	}
	if *shedMark < 0 || *shedMark >= 1 {
		if *shedMark != 0 {
			fatal("-shed-watermark must be 0 (disabled) or in (0,1)", "got", *shedMark)
		}
	}
	if *maxIter < 1 {
		fatal("-max-iters must be >= 1", "got", *maxIter)
	}
	if *maxVars < 1 {
		fatal("-max-vars must be >= 1", "got", *maxVars)
	}
	if !core.ValidEngine(*engine) {
		fatal("-engine must be \"map\" or \"compiled\"", "got", *engine)
	}
	if *retention < 1 {
		fatal("-retention must be >= 1", "got", *retention)
	}
	if *warmCap < 1 {
		fatal("-warm-capacity must be >= 1", "got", *warmCap)
	}
	if *eventRing < 0 {
		fatal("-event-ring must be >= 0", "got", *eventRing)
	}
	if *maxSSE < 0 {
		fatal("-max-event-streams must be >= 0", "got", *maxSSE)
	}
	if *stallWin < 0 || *solveSLO < 0 {
		fatal("-stall-window and -solve-slo must be >= 0")
	}
	applyFaultInjection(os.Getenv("RASENGAN_FAULT"), logger)

	srv, err := service.Open(service.Config{
		QueueCapacity:     *queueCap,
		Executors:         *executors,
		WorkerBudget:      *budget,
		MaxBatch:          *maxBatch,
		ShedWatermark:     *shedMark,
		CacheEntries:      *cacheSize,
		DefaultTimeout:    *timeout,
		MaxIter:           *maxIter,
		MaxVars:           *maxVars,
		JobRetention:      *retention,
		DataDir:           *dataDir,
		WarmStartCapacity: *warmCap,
		Engine:            *engine,
		Logger:            logger,
		EventRingSize:     *eventRing,
		MaxEventStreams:   *maxSSE,
		StallWindow:       *stallWin,
		SolveSLO:          *solveSLO,
		CaptureDir:        *captDir,
	})
	if err != nil {
		fatal("open durable state", "data_dir", *dataDir, "error", err.Error())
	}

	if *debugAddr != "" {
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: debugHandler(srv), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "queue", *queueCap, "executors", *executors,
			"cache", *cacheSize, "workers", parallel.Workers())
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errCh:
		fatal("listen failed", "error", err.Error())
	case <-sigCtx.Done():
		logger.Info("received shutdown signal, draining (accepted jobs will finish)")
	}
	stop() // restore default handling: a second Ctrl-C kills immediately

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Warn("drain incomplete; some jobs may be unfinished", "error", err.Error())
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err.Error())
	}
	if err := srv.Close(); err != nil {
		logger.Warn("close durable state", "error", err.Error())
	}
	logger.Info("drained, exiting")
}
