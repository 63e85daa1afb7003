package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// CacheSize bounds the instance LRU by graph count (default 128;
	// negative disables caching entirely).
	CacheSize int
	// PoolSize bounds concurrent heavy computations (≤ 0 = GOMAXPROCS).
	PoolSize int
	// RequestTimeout bounds one computation (default 30s). It is enforced
	// server-side: the deadline context reaches the Dinkelbach/DP loops.
	RequestTimeout time.Duration
	// QueueTimeout bounds the wait for a pool slot (default 5s); requests
	// that cannot be admitted in time fail with 503.
	QueueTimeout time.Duration
	// BatchWindow is how long the first /v1/ratio request for an instance
	// holds its batch open for others to join (default 0: join-in-flight
	// batching only, no added latency).
	BatchWindow time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
	// TraceBuffer bounds the number of finished request traces retained for
	// /debug/trace?id= (default 256; negative disables request tracing —
	// no per-request span trees, no stage metrics).
	TraceBuffer int
	// TraceRetention expires buffered traces by age (default 10m); an
	// expired id answers 404 like an evicted one.
	TraceRetention time.Duration
	// TraceMaxSpans caps the spans recorded per trace (default 4096);
	// excess spans are dropped and counted on the trace.
	TraceMaxSpans int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxQueueDepth sheds load before queueing: when this many requests are
	// already waiting for a pool slot, new compute requests are rejected
	// immediately with 429 + Retry-After instead of queueing to a likely
	// timeout, and /readyz reports not-ready. Default 0 = 4× the pool
	// capacity; negative disables shedding (queue timeout still applies).
	MaxQueueDepth int
	// Chaos installs a fault injector on every request and batch context,
	// arming the registered injection sites (see internal/fault). nil — the
	// default — disables injection entirely; cmd/irshared only sets it when
	// both -chaos and -chaos-allow are given.
	Chaos *fault.Injector
	// DataDir enables the durable /v1/jobs subsystem: the crash-safe job
	// store (WAL + snapshot) lives here, and queued/running jobs found at
	// startup are recovered and resumed from their last checkpoint. Empty —
	// the default — disables the jobs API (501 jobs_disabled).
	DataDir string
	// NodeID identifies this process to cluster routers: /healthz and
	// /readyz echo it, so a probe can detect a backend that was replaced
	// behind the same address. Default: the hostname ("irshared" when even
	// that is unavailable).
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = obs.DefaultCapacity
	}
	if c.TraceBuffer < 0 {
		c.TraceBuffer = 0 // tracing disabled
	}
	if c.TraceRetention <= 0 {
		c.TraceRetention = obs.DefaultRetention
	}
	if c.TraceMaxSpans <= 0 {
		c.TraceMaxSpans = obs.DefaultMaxSpans
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 4 * par.Workers(c.PoolSize)
	}
	if c.MaxQueueDepth < 0 {
		c.MaxQueueDepth = 0 // shedding disabled
	}
	if c.NodeID == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			c.NodeID = host
		} else {
			c.NodeID = "irshared"
		}
	}
	return c
}

// Server is the irshared service: five /v1 compute endpoints over the
// shared cache/pool/batcher, plus /healthz and /metrics. Construct with
// New, mount via Handler, and drain with http.Server.Shutdown — the pool
// empties as in-flight requests finish, so shutdown is graceful by
// construction.
type Server struct {
	cfg       Config
	pool      *par.Limiter
	cache     *instanceCache
	batch     *batcher
	metrics   *metrics
	collector *obs.Collector // nil when tracing is disabled
	log       *slog.Logger

	// jobStore/jobSched are the durable jobs subsystem, nil unless
	// Config.DataDir is set.
	jobStore *jobs.Store
	jobSched *jobs.Scheduler

	// corruptCert, when non-nil, mutates every freshly built certificate
	// before the server's solver-free self-check. Test-only: it exercises the
	// cert_invalid path, proving the self-check really gates the response.
	corruptCert func(c any)
}

// New constructs a Server from cfg. With a DataDir configured it also opens
// the durable job store, recovers any jobs a previous process left behind
// (a failure here fails the boot — a broken store must not silently drop
// acknowledged work), and starts the scheduler; call Close to flush and
// release the store on shutdown.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var col *obs.Collector
	if cfg.TraceBuffer > 0 {
		col = obs.NewCollector(obs.CollectorConfig{
			Capacity:         cfg.TraceBuffer,
			Retention:        cfg.TraceRetention,
			MaxSpansPerTrace: cfg.TraceMaxSpans,
		})
	}
	s := &Server{
		cfg:       cfg,
		pool:      par.NewLimiter(cfg.PoolSize),
		cache:     newInstanceCache(cfg.CacheSize),
		batch:     newBatcher(cfg.BatchWindow),
		metrics:   newMetrics(),
		collector: col,
		log:       cfg.Logger,
	}
	// Panics contained inside detached batch computations never reach the
	// handler barrier, so the batcher reports them for panics_total here.
	s.batch.onPanic = func() { s.metrics.panics.Add(1) }
	if cfg.DataDir != "" {
		store, err := jobs.Open(cfg.DataDir, jobs.StoreConfig{})
		if err != nil {
			return nil, err
		}
		// The scheduler base context carries the chaos injector (when armed)
		// into job execution, checkpoint appends, and recovery — the
		// jobs.wal.append and jobs.recover sites fire there.
		base := fault.ContextWith(context.Background(), cfg.Chaos)
		sched, err := jobs.NewScheduler(jobs.SchedulerConfig{
			Store:  store,
			Pool:   s.pool,
			Run:    s.runJob,
			Base:   base,
			Logger: cfg.Logger,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		n, err := sched.Recover(base)
		if err != nil {
			sched.Close()
			store.Close()
			return nil, err
		}
		if n > 0 {
			cfg.Logger.Info("recovered jobs", "count", n, "data_dir", cfg.DataDir)
		}
		sched.Start()
		s.jobStore, s.jobSched = store, sched
	}
	return s, nil
}

// Close stops the job scheduler (running jobs checkpoint and requeue for
// the next boot) and closes the job store. Safe on a server without jobs,
// and safe to call after (or concurrently with) http.Server.Shutdown.
func (s *Server) Close() error {
	if s.jobSched != nil {
		s.jobSched.Close()
	}
	if s.jobStore != nil {
		return s.jobStore.Close()
	}
	return nil
}

// ServeAndDrain serves hs on ln until ctx is done (a daemon passes its
// SIGINT/SIGTERM context), then drains: the listener closes and in-flight
// requests get up to drain to finish. It is the process lifecycle cmd/irshared
// and cmd/irrouter share.
func ServeAndDrain(ctx context.Context, hs *http.Server, ln net.Listener, drain time.Duration, logger *slog.Logger) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "max_wait", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Collector exposes the server's trace collector (nil when tracing is
// disabled); tests and embedding daemons use it to inspect traces directly.
func (s *Server) Collector() *obs.Collector { return s.collector }

// Handler returns the service's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decompose", s.instrument("/v1/decompose", s.handleDecompose))
	mux.HandleFunc("POST /v1/allocate", s.instrument("/v1/allocate", s.handleAllocate))
	mux.HandleFunc("POST /v1/utilities", s.instrument("/v1/utilities", s.handleUtilities))
	mux.HandleFunc("POST /v1/ratio", s.instrument("/v1/ratio", s.handleRatio))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("GET /v1/mechanisms", s.instrument("/v1/mechanisms", s.handleMechanisms))
	mux.HandleFunc("POST /v1/tournament", s.instrument("/v1/tournament", s.handleTournament))
	mux.HandleFunc("POST /v1/scenario", s.instrument("/v1/scenario", s.handleScenario))
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.jobsEnabled(s.handleJobSubmit)))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.jobsEnabled(s.handleJobList)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.jobsEnabled(s.handleJobGet)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.jobsEnabled(s.handleJobCancel)))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter records the status code for logging and metrics, and whether
// the response has started — the panic barrier may only write an error body
// if the handler had not begun its (now abandoned) success response.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with body limits, logging and metrics. For the
// /v1 compute endpoints it additionally opens a per-request trace in the
// collector: the handler's decode/admit/compute/write stages and every
// solver span underneath them land in one tree, retrievable afterwards at
// /debug/trace?id= using the id echoed in the X-Trace-Id response header.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	traced := s.collector != nil && strings.HasPrefix(endpoint, "/v1/")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if traced {
			tr := s.collector.NewTrace(endpoint)
			w.Header().Set("X-Trace-Id", strconv.FormatUint(tr.ID(), 10))
			r = r.WithContext(tr.Context(r.Context()))
			defer tr.Finish()
		}
		if s.cfg.Chaos != nil {
			r = r.WithContext(fault.ContextWith(r.Context(), s.cfg.Chaos))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.contain(sw, r, h)
		elapsed := time.Since(start)
		if sp := obs.FromContext(r.Context()); sp != nil {
			sp.SetAttr("status", strconv.Itoa(sw.code))
		}
		s.metrics.observe(endpoint, sw.code, elapsed)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("endpoint", endpoint),
			slog.String("method", r.Method),
			slog.Int("status", sw.code),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// contain runs the handler behind the server's panic barrier: a panic —
// injected by chaos testing or real — is converted into a 500 with code
// internal_panic (when the response has not started), counted in
// panics_total, and recorded as an event on the request's trace span. One
// poisoned request never takes the process down.
func (s *Server) contain(sw *statusWriter, r *http.Request, h http.HandlerFunc) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		s.metrics.panics.Add(1)
		var stack []byte
		if pe, ok := rec.(*par.PanicError); ok {
			stack = pe.Stack
		}
		if sp := obs.FromContext(r.Context()); sp != nil {
			sp.AddEvent("panic_contained", "value", fmt.Sprint(rec))
		}
		s.log.LogAttrs(r.Context(), slog.LevelError, "panic contained",
			slog.String("endpoint", r.URL.Path),
			slog.String("value", fmt.Sprint(rec)),
			slog.String("stack", string(stack)),
		)
		if !sw.wrote {
			writeErrorDetail(sw, http.StatusInternalServerError, CodeInternalPanic,
				"computation panicked; the panic was contained and the request may be retried",
				fmt.Sprint(rec))
		} else if sw.code < http.StatusBadRequest {
			// The success response is torn mid-body; reflect that in the
			// logged/metered status at least.
			sw.code = http.StatusInternalServerError
		}
	}()
	h(sw, r)
}

// retryAfter stamps the conventional back-off hint on a shed or busy
// response; clients (including client.Client) honor it as a floor.
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// saturated reports whether the pool wait queue is at or beyond the
// shedding threshold.
func (s *Server) saturated() bool {
	return s.cfg.MaxQueueDepth > 0 && s.pool.Waiting() >= s.cfg.MaxQueueDepth
}

// admit takes a pool slot and a computation context for one request. The
// returned release must be called when the computation finishes; ok=false
// means the request was rejected (response already written). Requests
// arriving while the wait queue is saturated are shed immediately (429 +
// Retry-After) instead of queueing toward a near-certain timeout.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (ctx context.Context, release func(), ok bool) {
	if s.saturated() {
		s.metrics.shed.Add(1)
		retryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, "server overloaded: pool wait queue is saturated")
		return nil, nil, false
	}
	_, sp := obs.Start(r.Context(), "server.admit")
	queueCtx, cancelQueue := context.WithTimeout(r.Context(), s.cfg.QueueTimeout)
	err := s.pool.Acquire(queueCtx)
	cancelQueue()
	sp.End()
	if err != nil {
		if r.Context().Err() != nil {
			// Client went away while queued; nothing useful to write.
			writeError(w, statusClientClosed, CodeClientClosed, "client canceled while queued")
		} else {
			retryAfter(w, s.cfg.QueueTimeout)
			writeError(w, http.StatusServiceUnavailable, CodeBusy, "server busy: no worker slot within queue timeout")
		}
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	release = func() { cancel(); s.pool.Release() }
	// The injection hit below may panic (KindPanic chaos rules). At this
	// point the slot is held but the handler's defer release() does not exist
	// yet, so an escaping panic would leak the slot and eventually deadlock
	// the pool. Release on the way out, then rethrow to the barrier.
	defer func() {
		if rec := recover(); rec != nil {
			release()
			panic(rec)
		}
	}()
	if err := fault.Hit(ctx, fault.SiteServerCompute); err != nil {
		release()
		writeComputeError(w, r, err)
		return nil, nil, false
	}
	return ctx, release, true
}

// computeBase builds the context for a batched computation: bounded by the
// server's request timeout but NOT by any single request's lifetime (the
// batcher cancels it when the batch ends or every participant departs).
// The chaos injector rides along so detached batch work is faultable too.
func (s *Server) computeBase() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	return fault.ContextWith(ctx, s.cfg.Chaos), cancel
}

// HealthzResponse is the body of GET /healthz. NodeID lets a cluster
// router detect a backend process swapped behind a reused address.
type HealthzResponse struct {
	Status string `json:"status"`
	NodeID string `json:"node_id"`
}

// ReadyzResponse is the body of GET /readyz when the node is ready.
// QueueDepth counts work waiting for a worker slot — queued compute
// requests plus queued durable jobs — which routers use to steer placement;
// Waiting is the pre-cluster spelling of the compute wait count, kept so
// existing probes don't break.
type ReadyzResponse struct {
	Status     string `json:"status"`
	NodeID     string `json:"node_id"`
	QueueDepth int    `json:"queue_depth"`
	Waiting    string `json:"waiting"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthzResponse{Status: "ok", NodeID: s.cfg.NodeID})
}

// queueDepth is the total backlog behind the worker pool: requests waiting
// for a slot plus durable jobs queued but not yet running.
func (s *Server) queueDepth() int {
	depth := s.pool.Waiting()
	if s.jobSched != nil {
		depth += s.jobSched.Stats().QueueDepth
	}
	return depth
}

// handleReadyz is the readiness probe: liveness (/healthz) says the process
// runs; readiness says it can take more compute work. When the wait queue
// is saturated it answers 429 with Retry-After so load balancers and
// clients back off before burning the queue timeout. The body carries the
// stable node ID and current queue depth for cluster routers.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.saturated() {
		retryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, "not ready: pool wait queue is saturated")
		return
	}
	writeJSON(w, http.StatusOK, ReadyzResponse{
		Status:     "ready",
		NodeID:     s.cfg.NodeID,
		QueueDepth: s.queueDepth(),
		Waiting:    strconv.Itoa(s.pool.Waiting()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, gauges{
		poolCap:        s.pool.Cap(),
		poolInUse:      s.pool.InUse(),
		poolWaiting:    s.pool.Waiting(),
		cacheEntries:   s.cache.len(),
		cacheHits:      s.cache.hits.Load(),
		cacheMisses:    s.cache.misses.Load(),
		cacheEvictions: s.cache.evictions.Load(),
		batchRuns:      s.batch.runs.Load(),
		batchJoins:     s.batch.joins.Load(),
	})
	s.writeJobsMetrics(w)
	if s.collector != nil {
		s.collector.WritePrometheus(w, "irshared_")
	}
}
