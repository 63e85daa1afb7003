package obs

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CollectorConfig bounds the memory a Collector may hold. Zero values take
// the defaults noted per field.
type CollectorConfig struct {
	// Capacity is the number of finished traces retained in the ring
	// buffer (default 256). The buffer is the backing store for
	// /debug/trace?id=; older traces are evicted as new ones finish.
	Capacity int
	// Retention expires ring entries by age at lookup time (default 10m).
	// An expired trace is reported as evicted even if still buffered.
	Retention time.Duration
	// MaxSpansPerTrace caps each trace's span count (default 4096);
	// excess spans are dropped and counted on the trace.
	MaxSpansPerTrace int
	// MaxEventsPerSpan caps events per span (default 64).
	MaxEventsPerSpan int
}

const (
	DefaultCapacity  = 256
	DefaultRetention = 10 * time.Minute
)

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.Retention <= 0 {
		c.Retention = DefaultRetention
	}
	if c.MaxSpansPerTrace <= 0 {
		c.MaxSpansPerTrace = DefaultMaxSpans
	}
	if c.MaxEventsPerSpan <= 0 {
		c.MaxEventsPerSpan = DefaultMaxEvents
	}
	return c
}

// stageBuckets spans 50µs..5s in roughly 3x steps: decomposition stages on
// small rings land at the low end, full sweeps at the high end.
var stageBuckets = []float64{0.00005, 0.00015, 0.0005, 0.0015, 0.005, 0.015, 0.05, 0.15, 0.5, 1.5, 5}

// iterBuckets histograms iterations-per-solve for counters that represent
// loop trip counts (Dinkelbach iterations, oracle calls).
var iterBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}

// Collector is the production Recorder: it retains finished traces in a
// bounded ring buffer (for /debug/trace) and folds every span into
// per-stage duration histograms, iteration histograms, and counter sums
// (for /metrics). Safe for concurrent use.
type Collector struct {
	cfg    CollectorConfig
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []*TraceSnapshot // ring buffer, len == cfg.Capacity
	head    int              // next write position
	byID    map[uint64]*TraceSnapshot
	evicted int64 // traces pushed out of the ring or expired at Get

	stages   map[string]*Histogram // span name -> duration histogram
	iters    map[string]*Histogram // "span/counter" -> iteration histogram
	counters map[string]int64      // "span/counter" -> running sum
	finished int64
}

// NewCollector builds a collector with cfg (zero fields take defaults).
func NewCollector(cfg CollectorConfig) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:      cfg,
		ring:     make([]*TraceSnapshot, cfg.Capacity),
		byID:     make(map[uint64]*TraceSnapshot, cfg.Capacity),
		stages:   make(map[string]*Histogram),
		iters:    make(map[string]*Histogram),
		counters: make(map[string]int64),
	}
}

// Config returns the collector's effective (defaulted) configuration.
func (c *Collector) Config() CollectorConfig { return c.cfg }

// NewTrace implements Recorder. Trace ids start at 1 and are unique for
// the collector's lifetime, so an evicted id never aliases a live trace.
func (c *Collector) NewTrace(name string) *Trace {
	id := c.nextID.Add(1)
	return newTrace(id, name, c.cfg.MaxSpansPerTrace, c.cfg.MaxEventsPerSpan, c.ingest)
}

// ingest is the Trace.Finish callback: snapshot, buffer, aggregate.
func (c *Collector) ingest(t *Trace) {
	snap := t.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.ring[c.head]; old != nil {
		delete(c.byID, old.ID)
		c.evicted++
	}
	c.ring[c.head] = snap
	c.byID[snap.ID] = snap
	c.head = (c.head + 1) % len(c.ring)
	c.finished++
	snap.Root.Walk(func(sp *SpanSnapshot) {
		ObserveIn(c.stages, sp.Name, stageBuckets, sp.Duration.Seconds())
		for _, cv := range sp.Counters {
			key := sp.Name + "/" + cv.Key
			c.counters[key] += cv.Value
			ObserveIn(c.iters, key, iterBuckets, float64(cv.Value))
		}
	})
}

// Get returns the snapshot for id. ok is false when the id was never
// issued, was evicted from the ring, or has aged past the retention window
// (expired entries are dropped from the buffer on lookup).
func (c *Collector) Get(id uint64) (*TraceSnapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	if time.Since(snap.Start) > c.cfg.Retention {
		delete(c.byID, id)
		for i, s := range c.ring {
			if s == snap {
				c.ring[i] = nil
				break
			}
		}
		c.evicted++
		return nil, false
	}
	return snap, true
}

// Stats reports collector-level gauges for /metrics.
type Stats struct {
	Finished int64
	Buffered int
	Evicted  int64
}

// Stats returns the collector's current gauge values.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Finished: c.finished, Buffered: len(c.byID), Evicted: c.evicted}
}

// WritePrometheus emits the collector's aggregates in Prometheus text
// exposition format, all metric names prefixed with prefix (e.g.
// "irshared_"): per-stage duration histograms, iteration histograms for
// every span counter, counter sums, and trace gauges. Output is sorted so
// scrapes are deterministic.
func (c *Collector) WritePrometheus(w io.Writer, prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := PromWriter{W: w, Prefix: prefix}
	p.Family("stage_seconds", "histogram", "Time spent per solver stage (span name).")
	for _, name := range SortedKeys(c.stages, strings.Compare) {
		p.Histogram("stage_seconds", c.stages[name], "stage", name)
	}
	p.Family("stage_iterations", "histogram", "Per-solve distribution of span counters (e.g. Dinkelbach iterations).")
	for _, key := range SortedKeys(c.iters, strings.Compare) {
		p.Histogram("stage_iterations", c.iters[key], "counter", key)
	}
	p.Family("span_counter_total", "counter", "Running sums of span counters across all traces.")
	for _, key := range SortedKeys(c.counters, strings.Compare) {
		p.Sample("span_counter_total", c.counters[key], "counter", key)
	}
	p.Scalar("traces_finished_total", "counter", "Traces finished and ingested.", c.finished)
	p.Scalar("traces_evicted_total", "counter", "Traces evicted from the ring buffer or expired by retention.", c.evicted)
	p.Scalar("traces_buffered", "gauge", "Traces currently retrievable from /debug/trace.", int64(len(c.byID)))
}
