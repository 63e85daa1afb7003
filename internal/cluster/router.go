package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config tunes a Router. Zero values select the documented defaults.
type Config struct {
	// Nodes is the static seed list of backend base URLs (e.g.
	// "http://10.0.0.1:8080"). Required, at least one.
	Nodes []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 64).
	VNodes int
	// ProbeInterval is the /readyz probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange (default 2s).
	ProbeTimeout time.Duration
	// DeadAfter is how many consecutive failed probes kill a node
	// (default 3).
	DeadAfter int
	// LeaseTTL is the placement lease duration for durable jobs (default
	// 15s). A lease not renewed within its TTL — the owner died or
	// partitioned — has its job re-placed on a survivor.
	LeaseTTL time.Duration
	// RenewInterval is the lease renewal/supervision period (default
	// LeaseTTL/3).
	RenewInterval time.Duration
	// QuarantineFor is how long a certificate rejection bars a node from
	// traffic (default 30s); after it elapses, the next successful probe
	// readmits the node.
	QuarantineFor time.Duration
	// DataDir persists the lease WAL so placements survive router
	// restarts. Empty: leases are memory-only (in-process clusters, tests).
	DataDir string
	// Logger receives structured router logs (default slog.Default()).
	Logger *slog.Logger
	// Chaos arms the cluster.probe and cluster.lease fault sites (see
	// internal/fault); nil disables injection.
	Chaos *fault.Injector
	// TraceBuffer bounds retained request traces (default 256; negative
	// disables router tracing).
	TraceBuffer int
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.RenewInterval <= 0 {
		c.RenewInterval = c.LeaseTTL / 3
	}
	if c.QuarantineFor <= 0 {
		c.QuarantineFor = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = obs.DefaultCapacity
	}
	return c
}

// backendTimeout bounds one proxied exchange with a backend, body included.
const backendTimeout = 60 * time.Second

// Error codes the router adds to the catalogue. Backend errors pass through
// with their own codes.
const (
	// CodeNoBackends: every node is dead or quarantined (503).
	CodeNoBackends = "no_backends"
	// CodeBadGateway: the placement node and its failover replica both
	// failed at the node level (502).
	CodeBadGateway = "bad_gateway"
	// CodeLeaseUnavailable: the job was accepted by a backend but the
	// router could not persist its placement lease (503). Resubmitting is
	// safe and converges: submission is content-addressed, so the retry
	// dedupes to the same job and only the lease grant is repeated.
	CodeLeaseUnavailable = "lease_unavailable"
	// CodeJobUnreachable: no live node holds the job, but a dead or
	// quarantined member was not asked and may (503, with Retry-After set
	// to the probe interval, after which that member may be asked again).
	CodeJobUnreachable = "job_unreachable"
)

// Router is the cluster coordinator: a reverse proxy that owns placement,
// membership, failover, job leases, and certificate verification. Construct
// with New, mount Handler, call Start to launch the probe and lease loops,
// and Close to stop them.
type Router struct {
	cfg     Config
	ring    *ring
	members *membership
	leases  *leaseLog
	hc      *http.Client
	log     *slog.Logger
	col     *obs.Collector
	base    context.Context // carries the chaos injector into loops

	requestsMu sync.Mutex
	requests   map[string]int64 // "endpoint|status" → count

	failovers      atomic.Int64
	certChecks     atomic.Int64
	certRejections atomic.Int64
	leaseGrants    atomic.Int64
	leaseRenewals  atomic.Int64
	leaseReplaced  atomic.Int64
	leaseRetired   atomic.Int64

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New builds a Router over the seed node list and replays its lease WAL
// (when DataDir is set): leases from a previous router process come back
// live and their jobs are re-supervised — and re-placed if their owner died
// while the router was down.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one backend node is required")
	}
	leases, err := openLeaseLog(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	var col *obs.Collector
	if cfg.TraceBuffer > 0 {
		col = obs.NewCollector(obs.CollectorConfig{Capacity: cfg.TraceBuffer})
	}
	r := &Router{
		cfg:      cfg,
		ring:     newRing(cfg.Nodes, cfg.VNodes),
		members:  newMembership(cfg.Nodes, cfg.DeadAfter, cfg.QuarantineFor),
		leases:   leases,
		hc:       &http.Client{Timeout: backendTimeout},
		log:      cfg.Logger,
		col:      col,
		base:     fault.ContextWith(context.Background(), cfg.Chaos),
		requests: make(map[string]int64),
		done:     make(chan struct{}),
	}
	return r, nil
}

// Start launches the membership prober and the lease supervision loop.
func (r *Router) Start() {
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		r.probeOnce(r.base)
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-t.C:
				r.probeOnce(r.base)
			}
		}
	}()
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.RenewInterval)
		defer t.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-t.C:
				r.superviseLeases(r.base)
			}
		}
	}()
}

// Close stops the loops and closes the lease log.
func (r *Router) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	return r.leases.close()
}

// Members exposes the current membership view (tests, ops tooling).
func (r *Router) Members() []Member { return r.members.snapshot() }

// Leases exposes copies of the live lease table (tests, ops tooling).
func (r *Router) Leases() []Lease { return r.leases.all() }

// Handler returns the router's http.Handler: the full /v1 surface proxied
// with placement and failover, plus the router's own health and metrics.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range []string{"/v1/decompose", "/v1/allocate", "/v1/utilities"} {
		ep := ep
		mux.HandleFunc("POST "+ep, r.instrument(ep, func(w http.ResponseWriter, req *http.Request) {
			r.proxyCompute(w, req, ep, nil)
		}))
	}
	mux.HandleFunc("POST /v1/ratio", r.instrument("/v1/ratio", func(w http.ResponseWriter, req *http.Request) {
		r.proxyCompute(w, req, "/v1/ratio", verifyRatioCert)
	}))
	mux.HandleFunc("POST /v1/sweep", r.instrument("/v1/sweep", func(w http.ResponseWriter, req *http.Request) {
		r.proxyCompute(w, req, "/v1/sweep", verifySweepCert)
	}))
	mux.HandleFunc("POST /v1/tournament", r.instrument("/v1/tournament", func(w http.ResponseWriter, req *http.Request) {
		r.proxyAny(w, req, "/v1/tournament")
	}))
	mux.HandleFunc("POST /v1/scenario", r.instrument("/v1/scenario", func(w http.ResponseWriter, req *http.Request) {
		// ksybil/coalition bodies carry a graph, so placementKey lands them
		// where that instance's caches are warm; topology scans have no
		// graph and fall back to the stable endpoint spread.
		r.proxyCompute(w, req, "/v1/scenario", nil)
	}))
	mux.HandleFunc("GET /v1/mechanisms", r.instrument("/v1/mechanisms", func(w http.ResponseWriter, req *http.Request) {
		r.proxyAny(w, req, "/v1/mechanisms")
	}))
	mux.HandleFunc("POST /v1/jobs", r.instrument("/v1/jobs", r.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", r.instrument("/v1/jobs#list", r.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", r.instrument("/v1/jobs/{id}", r.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.instrument("/v1/jobs/{id}", r.handleJobCancel))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		alive := 0
		for _, m := range r.members.snapshot() {
			if m.State == StateAlive {
				alive++
			}
		}
		if alive == 0 {
			writeError(w, http.StatusServiceUnavailable, CodeNoBackends, "no live backend nodes")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "alive_nodes": alive})
	})
	mux.HandleFunc("GET /cluster/nodes", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.members.snapshot())
	})
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

// instrument opens a router trace per request and counts it by endpoint and
// status.
func (r *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.col != nil {
			tr := r.col.NewTrace(endpoint)
			w.Header().Set("X-Router-Trace-Id", strconv.FormatUint(tr.ID(), 10))
			req = req.WithContext(tr.Context(req.Context()))
			defer tr.Finish()
		}
		if r.cfg.Chaos != nil {
			req = req.WithContext(fault.ContextWith(req.Context(), r.cfg.Chaos))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, req)
		r.requestsMu.Lock()
		r.requests[endpoint+"|"+strconv.Itoa(sw.code)]++
		r.requestsMu.Unlock()
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// placementBody is the subset of every compute request the router needs
// for placement: the instance graph and the mechanism scope.
type placementBody struct {
	Graph     server.WireGraph `json:"graph"`
	Mechanism string           `json:"mechanism"`
}

// placementKey derives the ring key of a compute request body; ok=false
// (malformed body, unknown mechanism) falls back to any-node routing and
// lets the backend produce its precise 400.
func placementKey(body []byte) (string, bool) {
	var pb placementBody
	if err := json.Unmarshal(body, &pb); err != nil {
		return "", false
	}
	key, err := server.PlacementKey(&pb.Graph, pb.Mechanism)
	if err != nil {
		return "", false
	}
	return key, true
}

// aliveSequence is the ring's failover order for key with dead and
// quarantined nodes removed.
func (r *Router) aliveSequence(key string) []string {
	seq := r.ring.sequence(key)
	alive := seq[:0:0]
	for _, n := range seq {
		if r.members.alive(n) {
			alive = append(alive, n)
		}
	}
	return alive
}

// proxyCompute routes one compute request: consistent-hash placement on the
// instance key, single-retry failover to the next ring replica, and — when
// verify is set and the backend answered 200 — solver-free certificate
// checking with quarantine on failure.
func (r *Router) proxyCompute(w http.ResponseWriter, req *http.Request, endpoint string, verify func([]byte) error) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "unreadable request body")
		return
	}
	ctx, sp := obs.Start(req.Context(), "router.place")
	key, keyed := placementKey(body)
	var seq []string
	if keyed {
		seq = r.aliveSequence(key)
		sp.SetAttr("key", key)
	} else {
		seq = r.aliveSequence(endpoint) // arbitrary but stable spread
	}
	sp.End()
	r.forward(ctx, w, req, endpoint, body, seq, verify)
}

// proxyAny routes a request with no instance affinity (tournaments span
// many instances; discovery is node-independent) to the first alive node.
func (r *Router) proxyAny(w http.ResponseWriter, req *http.Request, endpoint string) {
	var body []byte
	if req.Method != http.MethodGet {
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, 8<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_body", "unreadable request body")
			return
		}
	}
	r.forward(req.Context(), w, req, endpoint, body, r.aliveSequence(endpoint), nil)
}

// forward attempts the request on seq[0], hedging with a single retry on
// the next replica when a node fails at the node level (transport error,
// 502/504) or flunks certificate verification. Backend answers — success
// or error — pass through byte-for-byte otherwise.
func (r *Router) forward(ctx context.Context, w http.ResponseWriter, req *http.Request, endpoint string, body []byte, seq []string, verify func([]byte) error) {
	if len(seq) == 0 {
		writeError(w, http.StatusServiceUnavailable, CodeNoBackends, "no live backend nodes")
		return
	}
	attempts := seq
	if len(attempts) > 2 {
		attempts = attempts[:2] // single-retry hedging
	}
	var lastErr error
	for i, node := range attempts {
		if i > 0 {
			r.failovers.Add(1)
		}
		status, hdr, respBody, err := r.exchange(ctx, node, req, endpoint, body)
		if err != nil || status == http.StatusBadGateway || status == http.StatusGatewayTimeout {
			if err == nil {
				err = fmt.Errorf("cluster: node %s answered %d", node, status)
			}
			lastErr = err
			r.log.Warn("node failed, failing over", "node", node, "endpoint", endpoint, "err", err)
			continue
		}
		if verify != nil && status == http.StatusOK {
			r.certChecks.Add(1)
			_, csp := obs.Start(ctx, "router.cert_check")
			verr := verify(respBody)
			csp.End()
			if verr != nil {
				r.certRejections.Add(1)
				r.members.quarantine(node, time.Now())
				lastErr = fmt.Errorf("cluster: node %s returned an invalid certificate: %w", node, verr)
				r.log.Error("certificate check failed; node quarantined", "node", node, "err", verr)
				continue
			}
		}
		copyHeaders(w, hdr)
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	writeErrorDetail(w, http.StatusBadGateway, CodeBadGateway,
		"backend placement and failover replica both failed", fmt.Sprint(lastErr))
}

// exchange performs one proxied HTTP round trip.
func (r *Router) exchange(ctx context.Context, node string, req *http.Request, endpoint string, body []byte) (int, http.Header, []byte, error) {
	ctx, sp := obs.Start(ctx, "router.forward")
	sp.SetAttr("node", node)
	defer sp.End()
	url := node + endpoint
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	preq, err := http.NewRequestWithContext(ctx, req.Method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		preq.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(preq)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	return resp.StatusCode, resp.Header, raw, nil
}

// verifyRatioCert re-checks a /v1/ratio answer's certificate — the zero-
// trust gate: the router never recomputes the ratio, it verifies the proof.
// Answers without a certificate (the request didn't opt in) pass.
func verifyRatioCert(body []byte) error {
	var resp server.RatioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable ratio response: %w", err)
	}
	if resp.Certificate == nil {
		return nil
	}
	return cert.Check(resp.Certificate)
}

// verifySweepCert is verifyRatioCert for /v1/sweep answers.
func verifySweepCert(body []byte) error {
	var resp server.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable sweep response: %w", err)
	}
	if resp.Certificate == nil {
		return nil
	}
	return cert.Check(resp.Certificate)
}

func copyHeaders(w http.ResponseWriter, hdr http.Header) {
	for _, k := range []string{"Content-Type", "Retry-After", "X-Trace-Id"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, server.ErrorResponse{Code: code, Message: msg})
}

func writeErrorDetail(w http.ResponseWriter, status int, code, msg, detail string) {
	writeJSON(w, status, server.ErrorResponse{Code: code, Message: msg, Detail: detail})
}
