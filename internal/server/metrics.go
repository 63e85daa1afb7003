package server

import (
	"cmp"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// latencyBuckets are the histogram upper bounds in seconds (Prometheus
// convention: cumulative, +Inf implicit).
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metrics aggregates the service counters exposed at /metrics in the
// Prometheus text exposition format. It is deliberately dependency-free: a
// mutex-guarded map of per-endpoint series is more than enough at the
// request rates one exact-arithmetic solver process can sustain.
type metrics struct {
	mu        sync.Mutex
	requests  map[statusKey]int64       // requests_total{endpoint,code}
	latency   map[string]*obs.Histogram // request_seconds{endpoint}
	cacheReqs map[cacheKey]int64        // cache_requests_total{endpoint,result}

	// panics counts contained panics (handler barrier + batch containment);
	// shed counts requests rejected by queue-saturation load shedding.
	// Atomics, not map entries: they are bumped from recovery paths that
	// should stay as simple as possible.
	panics atomic.Int64
	shed   atomic.Int64
}

type statusKey struct {
	endpoint string
	code     int
}

func (a statusKey) compare(b statusKey) int {
	return cmp.Or(strings.Compare(a.endpoint, b.endpoint), cmp.Compare(a.code, b.code))
}

type cacheKey struct {
	endpoint string
	result   string // "hit" or "miss", the order they list in
}

func (a cacheKey) compare(b cacheKey) int {
	return cmp.Or(strings.Compare(a.endpoint, b.endpoint), strings.Compare(a.result, b.result))
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[statusKey]int64),
		latency:   make(map[string]*obs.Histogram),
		cacheReqs: make(map[cacheKey]int64),
	}
}

// cacheLookup records one instance-cache lookup attributed to an endpoint,
// feeding the per-endpoint hit-ratio series.
func (m *metrics) cacheLookup(endpoint string, hit bool) {
	result := "miss"
	if hit {
		result = "hit"
	}
	m.mu.Lock()
	m.cacheReqs[cacheKey{endpoint, result}]++
	m.mu.Unlock()
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[statusKey{endpoint, code}]++
	obs.ObserveIn(m.latency, endpoint, latencyBuckets, d.Seconds())
}

// write renders the request and cache-lookup families.
func (m *metrics) write(p obs.PromWriter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.Family("requests_total", "counter", "Requests served, by endpoint and status code.")
	for _, k := range obs.SortedKeys(m.requests, statusKey.compare) {
		p.Sample("requests_total", m.requests[k], "endpoint", k.endpoint, "code", strconv.Itoa(k.code))
	}
	p.Family("request_seconds", "histogram", "Request latency, by endpoint.")
	for _, ep := range obs.SortedKeys(m.latency, strings.Compare) {
		p.Histogram("request_seconds", m.latency[ep], "endpoint", ep)
	}
	p.Family("cache_requests_total", "counter", "Instance-cache lookups, by endpoint and result.")
	for _, k := range obs.SortedKeys(m.cacheReqs, cacheKey.compare) {
		p.Sample("cache_requests_total", m.cacheReqs[k], "endpoint", k.endpoint, "result", k.result)
	}
}

// handleMetrics renders every irshared_ series in the Prometheus text
// format: the request families above, the cache, pool and batcher gauges,
// the jobs subsystem when it is enabled, and the trace collector's stage
// aggregates.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.PromWriter{W: w, Prefix: "irshared_"}
	s.metrics.write(p)
	p.Scalar("cache_hits_total", "counter", "Instance-cache hits.", s.cache.hits.Load())
	p.Scalar("cache_misses_total", "counter", "Instance-cache misses.", s.cache.misses.Load())
	p.Scalar("cache_evictions_total", "counter", "Instance-cache LRU evictions.", s.cache.evictions.Load())
	p.Scalar("cache_entries", "gauge", "Resident instance-cache entries.", int64(s.cache.len()))
	p.Scalar("pool_capacity", "gauge", "Worker-pool slot capacity.", int64(s.pool.Cap()))
	p.Scalar("pool_in_use", "gauge", "Worker-pool slots currently held.", int64(s.pool.InUse()))
	p.Scalar("pool_waiting", "gauge", "Requests queued for a pool slot.", int64(s.pool.Waiting()))
	p.Scalar("batch_runs_total", "counter", "Ratio computations executed.", s.batch.runs.Load())
	p.Scalar("batch_joins_total", "counter", "Ratio requests that joined an in-flight batch.", s.batch.joins.Load())
	p.Scalar("panics_total", "counter", "Panics contained by the recovery barriers.", s.metrics.panics.Load())
	p.Scalar("shed_total", "counter", "Requests shed by queue-saturation load shedding.", s.metrics.shed.Load())
	s.writeJobsMetrics(p)
	if s.collector != nil {
		s.collector.WritePrometheus(w, "irshared_")
	}
}
