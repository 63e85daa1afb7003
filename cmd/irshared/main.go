// Command irshared serves the resource-sharing solvers over HTTP/JSON.
//
// Endpoints (see internal/server):
//
//	POST /v1/decompose  bottleneck decomposition of a graph
//	POST /v1/allocate   BD allocation (directed transfers + utilities)
//	POST /v1/utilities  equilibrium utilities only
//	POST /v1/ratio      incentive ratio of one ring agent (batched)
//	POST /v1/sweep      split-utility curve of one ring agent
//	POST /v1/jobs       submit a durable background sweep job (needs -data-dir)
//	GET  /v1/jobs       list jobs (cursor pagination, ?state= filter)
//	GET  /v1/jobs/{id}  job status, checkpointed partial points, final result
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	GET  /healthz       liveness
//	GET  /readyz        readiness (429 + Retry-After when the queue is saturated)
//	GET  /metrics       Prometheus text metrics
//	GET  /debug/trace   span tree of a finished request (?id= from X-Trace-Id)
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//
// The process drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests run to completion (bounded by -timeout), then the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "irshared:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("irshared", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		cacheSize    = fs.Int("cache-size", 128, "instance LRU capacity (0 disables caching)")
		pool         = fs.Int("pool", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request computation timeout")
		queueTimeout = fs.Duration("queue-timeout", 5*time.Second, "max wait for a worker slot")
		batchWindow  = fs.Duration("batch-window", 0, "ratio batch collection window (0 = join-in-flight only)")
		drain        = fs.Duration("drain", 30*time.Second, "max graceful shutdown wait")
		logFormat    = fs.String("log", "text", "log format: text|json")
		traceBuffer  = fs.Int("trace-buffer", 256, "retained request traces for /debug/trace (0 disables tracing)")
		traceKeep    = fs.Duration("trace-retention", 10*time.Minute, "max age of a retained trace")
		traceSpans   = fs.Int("trace-max-spans", 4096, "span cap per trace (excess spans are dropped, not buffered)")
		pprof        = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		maxQueue     = fs.Int("max-queue", 0, "shed load at this many queued requests (0 = 4x pool, -1 disables shedding)")
		chaosSpec    = fs.String("chaos", "", "fault-injection spec, e.g. 'server.compute=error:0.1;maxflow.push=panic:1/50' (requires -chaos-allow)")
		chaosAllow   = fs.Bool("chaos-allow", false, "acknowledge that -chaos deliberately breaks requests; refused otherwise")
		chaosSeed    = fs.Uint64("chaos-seed", 1, "deterministic seed for -chaos injection decisions")
		dataDir      = fs.String("data-dir", "", "durable job store directory; enables the /v1/jobs API and crash recovery")
		nodeID       = fs.String("node-id", "", "stable node identity reported on /healthz and /readyz (default: hostname)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	// The flag uses 0 = disabled (natural for operators); Config uses
	// 0 = default and negative = disabled.
	cfgCache := *cacheSize
	if cfgCache == 0 {
		cfgCache = -1
	}
	cfgTrace := *traceBuffer
	if cfgTrace == 0 {
		cfgTrace = -1
	}

	// Chaos is strictly opt-in twice over: -chaos names the faults, and
	// -chaos-allow acknowledges that a production-looking server is about to
	// fail requests on purpose. One without the other is refused.
	var injector *fault.Injector
	if *chaosSpec != "" {
		if !*chaosAllow {
			return fmt.Errorf("-chaos requires -chaos-allow (fault injection deliberately fails requests)")
		}
		rules, err := fault.Parse(*chaosSpec)
		if err != nil {
			return fmt.Errorf("bad -chaos spec: %w", err)
		}
		injector, err = fault.New(*chaosSeed, rules...)
		if err != nil {
			return fmt.Errorf("bad -chaos spec: %w", err)
		}
		logger.Warn("chaos mode: fault injection armed", "spec", *chaosSpec, "seed", *chaosSeed)
	} else if *chaosAllow {
		return fmt.Errorf("-chaos-allow given without -chaos")
	}

	srv, err := server.New(server.Config{
		CacheSize:      cfgCache,
		PoolSize:       *pool,
		RequestTimeout: *timeout,
		QueueTimeout:   *queueTimeout,
		BatchWindow:    *batchWindow,
		Logger:         logger,
		TraceBuffer:    cfgTrace,
		TraceRetention: *traceKeep,
		TraceMaxSpans:  *traceSpans,
		EnablePprof:    *pprof,
		MaxQueueDepth:  *maxQueue,
		Chaos:          injector,
		DataDir:        *dataDir,
		NodeID:         *nodeID,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", *addr)
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := server.ServeAndDrain(ctx, hs, ln, *drain, logger); err != nil {
		return err
	}
	// Stop the job scheduler after the listener drains: running jobs
	// checkpoint, requeue, and the store closes cleanly — the next boot's
	// recovery resumes them from their last checkpoint.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close job store: %w", err)
	}
	logger.Info("drained")
	return nil
}
