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
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/cert/build"
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
	requests   map[requestKey]int64

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
	return &Router{
		cfg:      cfg,
		ring:     newRing(cfg.Nodes, cfg.VNodes),
		members:  newMembership(cfg.Nodes, cfg.DeadAfter, cfg.QuarantineFor),
		leases:   leases,
		hc:       &http.Client{Timeout: backendTimeout},
		log:      cfg.Logger,
		col:      col,
		base:     fault.ContextWith(context.Background(), cfg.Chaos),
		requests: make(map[requestKey]int64),
		done:     make(chan struct{}),
	}, nil
}

// Start launches the membership prober, which probes at once and then
// every ProbeInterval, and the lease supervision loop, every RenewInterval.
func (r *Router) Start() {
	r.every(r.cfg.ProbeInterval, true, r.probeOnce)
	r.every(r.cfg.RenewInterval, false, r.superviseLeases)
}

// every runs fn every d until Close, and once at the start when now is set.
func (r *Router) every(d time.Duration, now bool, fn func(context.Context)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if now {
			fn(r.base)
		}
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-t.C:
				fn(r.base)
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
// with placement and failover, plus the router's own health, metrics and
// traces (/debug/trace?id= from X-Router-Trace-Id).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every proxied request is placed by its body's instance key when it
	// has one. /v1/scenario's ksybil and coalition bodies carry a graph, so
	// they land where that instance's caches are warm; topology scans,
	// tournaments (which span many instances) and discovery have none and
	// take the stable endpoint spread. Ratio and sweep answers pass the
	// certificate gate.
	for route, gate := range map[string]certGate{
		"POST /v1/decompose": nil, "POST /v1/allocate": nil, "POST /v1/utilities": nil,
		"POST /v1/scenario": nil, "POST /v1/tournament": nil, "GET /v1/mechanisms": nil,
		"POST /v1/ratio": verifyRatio, "POST /v1/sweep": verifySweep,
	} {
		ep, gate := route[strings.IndexByte(route, ' ')+1:], gate
		mux.HandleFunc(route, r.instrument(ep, func(w http.ResponseWriter, req *http.Request) {
			r.proxyCompute(w, req, ep, gate)
		}))
	}
	mux.HandleFunc("POST /v1/jobs", r.instrument("/v1/jobs", r.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", r.instrument("/v1/jobs#list", r.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", r.instrument("/v1/jobs/{id}", r.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.instrument("/v1/jobs/{id}", r.handleJobCancel))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		alive := 0
		for _, m := range r.members.snapshot() {
			if m.State == StateAlive {
				alive++
			}
		}
		if alive == 0 {
			server.WriteError(w, http.StatusServiceUnavailable, CodeNoBackends, "no live backend nodes")
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "alive_nodes": alive})
	})
	mux.HandleFunc("GET /cluster/nodes", func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, r.members.snapshot())
	})
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /debug/trace", server.TraceHandler(r.col))
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
		r.requests[requestKey{endpoint, sw.code}]++
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

// computeRequest is what the router reads of a compute request body, in
// one decode: the instance graph and mechanism scope that place it, and
// the agent, grid and cert flag its certificate gate binds the answer to.
type computeRequest struct {
	Graph     server.WireGraph `json:"graph"`
	Mechanism string           `json:"mechanism"`
	V         int              `json:"v"`
	Grid      int              `json:"grid"`
	Cert      bool             `json:"cert"`
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

// proxyCompute routes one request: consistent-hash placement on the
// instance key (or, without one, on the endpoint), single-retry failover
// to the next ring replica, and — when gate is set and the backend
// answered 200 — the certificate gate with quarantine on failure. A body
// without a key (malformed, unknown mechanism, invalid graph) goes to the
// endpoint's node, which produces the precise 400.
func (r *Router) proxyCompute(w http.ResponseWriter, req *http.Request, endpoint string, gate certGate) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 8<<20))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_body", "unreadable request body")
		return
	}
	ctx, sp := obs.Start(req.Context(), "router.place")
	var cr computeRequest
	key := ""
	if err = json.Unmarshal(body, &cr); err == nil {
		key, err = server.PlacementKey(&cr.Graph, cr.Mechanism)
	}
	var seq []string
	if err == nil {
		seq = r.aliveSequence(key)
		sp.SetAttr("key", key)
	} else {
		seq = r.aliveSequence(endpoint) // arbitrary but stable spread
	}
	sp.End()
	var verify func([]byte) error
	if gate != nil {
		cr.Cert = cr.Cert || req.URL.Query().Get("cert") == "1"
		verify = func(answer []byte) error { return gate(&cr, answer) }
	}
	r.forward(ctx, w, req, endpoint, body, seq, verify)
}

// forward passes the answer failover accepts through to the client byte
// for byte.
func (r *Router) forward(ctx context.Context, w http.ResponseWriter, req *http.Request, endpoint string, body []byte, seq []string, verify func([]byte) error) {
	if _, a, ok := r.failover(ctx, w, req, endpoint, body, seq, verify); ok {
		a.write(w)
	}
}

// failover attempts the request on seq[0], hedging with a single retry on
// the next replica when a node fails at the node level (transport error,
// 502/504) or flunks certificate verification, and returns the answering
// node and the answer it accepts: any other backend answer, success or
// error. When no node is live or both attempts fail, it answers the client
// itself (503 or 502) and reports false.
func (r *Router) failover(ctx context.Context, w http.ResponseWriter, req *http.Request, endpoint string, body []byte, seq []string, verify func([]byte) error) (string, reply, bool) {
	if len(seq) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, CodeNoBackends, "no live backend nodes")
		return "", reply{}, false
	}
	if len(seq) > 2 {
		seq = seq[:2] // single-retry hedging
	}
	var lastErr error
	for i, node := range seq {
		if i > 0 {
			r.failovers.Add(1)
		}
		a, err := r.roundTrip(ctx, "router.forward", req.Method, node, withQuery(endpoint, req.URL.RawQuery), body, maxBody)
		if err == nil && (a.status == http.StatusBadGateway || a.status == http.StatusGatewayTimeout) {
			err = fmt.Errorf("cluster: node %s answered %d", node, a.status)
		}
		if err != nil {
			lastErr = err
			r.log.Warn("node failed, failing over", "node", node, "endpoint", endpoint, "err", err)
			continue
		}
		if verify != nil && a.status == http.StatusOK {
			r.certChecks.Add(1)
			_, csp := obs.Start(ctx, "router.cert_check")
			verr := verify(a.body)
			csp.End()
			if verr != nil {
				r.certRejections.Add(1)
				r.members.quarantine(node, time.Now())
				lastErr = fmt.Errorf("cluster: node %s returned an invalid certificate: %w", node, verr)
				r.log.Error("certificate check failed; node quarantined", "node", node, "err", verr)
				continue
			}
		}
		return node, a, true
	}
	server.WriteErrorDetail(w, http.StatusBadGateway, CodeBadGateway,
		"backend placement and failover replica both failed", lastErr.Error())
	return "", reply{}, false
}

// maxBody bounds a backend answer the router reads (probes read 1 MiB).
const maxBody = 64 << 20

// reply is one backend answer.
type reply struct {
	status int
	hdr    http.Header
	body   []byte
}

// write passes the answer through to the client with the headers that
// describe it.
func (a reply) write(w http.ResponseWriter) {
	for _, k := range []string{"Content-Type", "Retry-After", "X-Trace-Id"} {
		if v := a.hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(a.status)
	w.Write(a.body)
}

// roundTrip is the router's one exchange with a backend: method on
// node+path, a non-nil body sent as JSON, at most limit bytes of the answer
// read. A non-empty span names the exchange in the caller's trace. The
// caller's context bounds it, and the client's backendTimeout caps it.
func (r *Router) roundTrip(ctx context.Context, span, method, node, path string, body []byte, limit int64) (reply, error) {
	var sp *obs.Span
	if span != "" {
		ctx, sp = obs.Start(ctx, span)
		sp.SetAttr("node", node)
		defer sp.End()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, node+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return reply{}, err
	}
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	return reply{status: resp.StatusCode, hdr: resp.Header, body: raw}, nil
}

// withQuery appends a non-empty query string to path.
func withQuery(path, query string) string {
	if query == "" {
		return path
	}
	return path + "?" + query
}

// certGate checks a backend's 200 answer to a certified endpoint against
// the request it answers. The router never recomputes an answer: it
// verifies the proof, and that the proof is of this answer to this
// request. A certificate the request asked for (cert: true or ?cert=1)
// must be present, except on a partial sweep segment, which the server
// never certifies. A present one must pass the solver-free cert.Check,
// speak about the request's ring and agent, and agree with the answer's
// own fields. Any failure is a rejection: counted, the node quarantined,
// and the request failed over.
type certGate func(cr *computeRequest, answer []byte) error

// verifyRatio is the certificate gate of /v1/ratio.
func verifyRatio(cr *computeRequest, answer []byte) error {
	var resp server.RatioResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return fmt.Errorf("undecodable ratio response: %w", err)
	}
	c := resp.Certificate
	if c == nil {
		return cr.missing(false)
	}
	if err := cr.bind(c, c.Ring.Instance, c.V); err != nil {
		return err
	}
	return agree("honest", resp.Honest, c.Honest, "ratio", resp.Ratio, c.Ratio,
		"leq_two", strconv.FormatBool(resp.LeqTwo), strconv.FormatBool(c.LeqTwo),
		"best_w1", resp.BestW1, c.Best.W1, "best_u", resp.BestU, c.Best.U)
}

// verifySweep is the certificate gate of /v1/sweep.
func verifySweep(cr *computeRequest, answer []byte) error {
	var resp server.SweepResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return fmt.Errorf("undecodable sweep response: %w", err)
	}
	c := resp.Certificate
	if c == nil {
		return cr.missing(resp.Partial)
	}
	if err := cr.bind(c, c.Ring.Instance, c.V); err != nil {
		return err
	}
	grid := cr.Grid
	if grid == 0 {
		grid = server.DefaultSweepGrid
	}
	if c.Grid != grid || c.Start != resp.StartIndex || len(c.Points) != len(resp.Points) {
		return fmt.Errorf("certificate covers %d points of grid %d from index %d, the answer %d of grid %d from %d",
			len(c.Points), c.Grid, c.Start, len(resp.Points), grid, resp.StartIndex)
	}
	for i, p := range resp.Points {
		if err := agree("w1", p.W1, c.Points[i].W1, "u", p.U, c.Points[i].U); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	best := c.Points[c.BestIndex]
	return agree("honest", resp.Honest, c.Honest, "ratio", resp.Ratio, c.Ratio,
		"best_w1", resp.BestW1, best.W1, "best_u", resp.BestU, best.U)
}

// missing is the verdict on an answer without a certificate: a rejection
// when the request asked for one, unless the answer is a partial segment.
func (cr *computeRequest) missing(partial bool) error {
	if cr.Cert && !partial {
		return errors.New("requested certificate missing")
	}
	return nil
}

// bind checks certificate c and that it speaks about the request: ring is
// the request's graph and v its agent.
func (cr *computeRequest) bind(c cert.Checkable, ring cert.Instance, v int) error {
	if err := cert.Check(c); err != nil {
		return err
	}
	g, err := cr.Graph.Build()
	if err != nil {
		return fmt.Errorf("certificate answers a request whose graph does not build: %w", err)
	}
	if v != cr.V || !reflect.DeepEqual(ring, build.InstanceOf(g)) {
		return fmt.Errorf("certificate is about agent %d of weights %v, not the request's agent %d of its graph", v, ring.Weights, cr.V)
	}
	return nil
}

// agree compares answer fields with their certificate counterparts, given
// as (name, answer, certificate) triples.
func agree(fields ...string) error {
	for i := 0; i+2 < len(fields); i += 3 {
		if fields[i+1] != fields[i+2] {
			return fmt.Errorf("answer %s %q disagrees with its certificate's %q", fields[i], fields[i+1], fields[i+2])
		}
	}
	return nil
}
