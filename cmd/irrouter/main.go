// Command irrouter fronts a sharded irshared cluster: it consistent-hashes
// each request's canonical instance key across the backend nodes, probes
// /readyz for membership, fails requests over to the next ring replica,
// supervises durable jobs under WAL-persisted TTL leases (re-placing them
// from their last checkpoint when a node dies), and re-checks backend
// certificates before forwarding them.
//
// Endpoints (see internal/cluster):
//
//	POST /v1/*          the full irshared compute surface, proxied
//	POST /v1/jobs       durable job placement under a lease
//	GET  /v1/jobs/{id}  job lookup (lease owner, else every live node)
//	DELETE /v1/jobs/{id} cancel + lease retirement
//	GET  /healthz       router liveness
//	GET  /readyz        ready while at least one backend is alive
//	GET  /cluster/nodes membership view (state, node IDs, queue depths)
//	GET  /metrics       Prometheus text metrics (irrouter_*)
//	GET  /debug/trace   span tree of a routed request (?id= from X-Router-Trace-Id)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "irrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("irrouter", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8090", "listen address")
		nodes         = fs.String("nodes", "", "comma-separated backend base URLs (required)")
		vnodes        = fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
		probeInterval = fs.Duration("probe-interval", time.Second, "/readyz probe period")
		probeTimeout  = fs.Duration("probe-timeout", 2*time.Second, "single probe timeout")
		deadAfter     = fs.Int("dead-after", 3, "consecutive failed probes before a node is dead")
		leaseTTL      = fs.Duration("lease-ttl", 15*time.Second, "job placement lease duration")
		renewEvery    = fs.Duration("renew-interval", 0, "lease renewal period (0 = lease-ttl/3)")
		quarantine    = fs.Duration("quarantine", 30*time.Second, "certificate-rejection quarantine period")
		dataDir       = fs.String("data-dir", "", "lease WAL directory; empty keeps leases in memory only")
		drain         = fs.Duration("drain", 30*time.Second, "max graceful shutdown wait")
		logFormat     = fs.String("log", "text", "log format: text|json")
		chaosSpec     = fs.String("chaos", "", "fault-injection spec for cluster.* sites (requires -chaos-allow)")
		chaosAllow    = fs.Bool("chaos-allow", false, "acknowledge that -chaos deliberately breaks requests; refused otherwise")
		chaosSeed     = fs.Uint64("chaos-seed", 1, "deterministic seed for -chaos injection decisions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes == "" {
		return errors.New("-nodes is required (comma-separated backend base URLs)")
	}
	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		n = strings.TrimRight(strings.TrimSpace(n), "/")
		if n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		return errors.New("-nodes contained no usable URLs")
	}

	logger, err := server.NewLogger(*logFormat)
	if err != nil {
		return err
	}
	injector, err := fault.FromFlags(*chaosSpec, *chaosAllow, *chaosSeed, logger)
	if err != nil {
		return err
	}

	router, err := cluster.New(cluster.Config{
		Nodes:         nodeList,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		DeadAfter:     *deadAfter,
		LeaseTTL:      *leaseTTL,
		RenewInterval: *renewEvery,
		QuarantineFor: *quarantine,
		DataDir:       *dataDir,
		Logger:        logger,
		Chaos:         injector,
	})
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("routing", "addr", *addr, "nodes", nodeList)
	hs := &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := server.ServeAndDrain(ctx, hs, ln, *drain, logger); err != nil {
		return err
	}
	// Stop the lease loops and sync the lease WAL after the listener drains:
	// the next boot replays every live placement and resumes supervision.
	if err := router.Close(); err != nil {
		return fmt.Errorf("close lease log: %w", err)
	}
	logger.Info("drained")
	return nil
}
