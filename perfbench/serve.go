package main

import (
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// discard is the log sink of every hosted server: request logging stays
// enabled (the program's default) but costs no terminal I/O.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack collects shutdown steps and runs them in reverse order.
type stack []func()

func (s *stack) push(f func()) { *s = append(*s, f) }

func (s *stack) close() {
	for i := len(*s) - 1; i >= 0; i-- {
		(*s)[i]()
	}
	*s = nil
}

// listen serves h on 127.0.0.1:0 and returns its base URL. The listener is
// bound before listen returns, so the server is ready without polling.
func listen(h http.Handler, st *stack) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ErrorLog: log.New(io.Discard, "", 0)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	st.push(func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// backendConfig is cmd/irshared's default configuration (cache 128, pool =
// GOMAXPROCS, request tracing on with a 256-trace buffer, load shedding at 4×
// the pool) with logs discarded. tracing=false turns request tracing off.
func backendConfig(id, dataDir string, tracing bool) server.Config {
	cfg := server.Config{CacheSize: 128, TraceBuffer: 256, Logger: discard, NodeID: id, DataDir: dataDir}
	if !tracing {
		cfg.TraceBuffer = -1
	}
	return cfg
}

// startBackend hosts one irshared server in process and returns its URL.
func startBackend(cfg server.Config, st *stack) (string, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return "", fmt.Errorf("server.New: %w", err)
	}
	st.push(func() { srv.Close() })
	return listen(srv.Handler(), st)
}

// startRouter hosts a cluster router with cmd/irrouter's defaults in front
// of nodes and returns its URL.
func startRouter(nodes []string, st *stack) (string, error) {
	r, err := cluster.New(cluster.Config{Nodes: nodes, Logger: discard})
	if err != nil {
		return "", fmt.Errorf("cluster.New: %w", err)
	}
	st.push(func() { r.Close() })
	r.Start()
	return listen(r.Handler(), st)
}

// retryCounter counts client retries through the public retry hook. A
// client is used by one goroutine at a time, so the count needs no lock.
type retryCounter struct{ n int }

func newClient(base string, seed int64, rc *retryCounter) *client.Client {
	return client.New(base, client.WithSeed(seed), client.WithRetryHook(func(int, error, time.Duration) { rc.n++ }))
}

// serverLayers fills the server.* metrics from /metrics scrapes of every
// backend taken before and after the timed phase.
func serverLayers(rep *report, before, after []promSnapshot, endpoints []string) {
	hits := delta(before, after, "irshared_cache_hits_total")
	misses := delta(before, after, "irshared_cache_misses_total")
	rep.layers["server.cache_hit_share"] = share(hits, hits+misses)
	rep.layers["server.cache_evictions"] = delta(before, after, "irshared_cache_evictions_total")
	var sum, count float64
	for _, ep := range endpoints {
		lbl := `endpoint="` + ep + `"`
		sum += delta(before, after, "irshared_request_seconds_sum", lbl)
		count += delta(before, after, "irshared_request_seconds_count", lbl)
	}
	rep.layers["server.request_ms"] = 1000 * share(sum, count)
	runs := delta(before, after, "irshared_batch_runs_total")
	joins := delta(before, after, "irshared_batch_joins_total")
	rep.layers["server.batch_join_share"] = share(joins, runs+joins)
}

// tracingShare replays n requests against two fresh backends, one with
// request tracing on (the default) and one with it off, alternating which
// goes first, and returns (on − off)/on of their summed latencies. warm,
// when set, runs untimed against each backend first.
func tracingShare(seed int64, do func(c *client.Client, i int) error, n int, warm func(c *client.Client) error) (float64, error) {
	st := &stack{}
	defer st.close()
	var cs [2]*client.Client
	for k, on := range []bool{true, false} {
		url, err := startBackend(backendConfig("trace", "", on), st)
		if err != nil {
			return 0, err
		}
		cs[k] = newClient(url, seed, &retryCounter{})
		if warm != nil {
			if err := warm(cs[k]); err != nil {
				return 0, fmt.Errorf("tracing comparison warm-up: %w", err)
			}
		}
	}
	var sum [2]time.Duration
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			t := time.Now()
			if err := do(cs[k], i); err != nil {
				return 0, fmt.Errorf("tracing comparison request %d: %w", i, err)
			}
			sum[k] += time.Since(t)
		}
	}
	return share(float64(sum[0]-sum[1]), float64(sum[0])), nil
}
