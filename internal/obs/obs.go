// Package obs is the zero-dependency observability layer shared by every
// solver: a span-tree recorder threaded through context.Context, plus a
// ring-buffered Collector (collector.go) that retains recent traces for the
// /debug/trace endpoint and aggregates per-stage Prometheus histograms for
// /metrics.
//
// The design goal is a near-zero disabled path. The current span travels as
// a single context value, every Span method is safe on a nil receiver, and
// Start on a context without a span is one Value lookup returning
// (ctx, nil). Library callers therefore pay essentially nothing unless a
// recorder is installed — via repro.WithRecorder, the server's per-request
// tracing, or Trace.Context directly.
//
// Recording model:
//
//   - A Trace is one recording session (one facade call, one HTTP request,
//     one batched computation). It owns the span tree, the span/event caps
//     that bound its memory, and the mutex that makes concurrent span
//     operations safe — solver code fans out across goroutines (par.Map)
//     while sharing one trace.
//   - A Span is one timed tree node with string attributes, integer
//     counters (cheap enough for per-iteration hot loops), and point-in-time
//     events (e.g. one per Dinkelbach iteration of a decomposition stage,
//     which `irshare decompose -trace` prints).
//   - A Recorder mints traces. Collector (ring buffer + metrics) and
//     Capture (keep the last trace, for library use and tests) implement it.
package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one string key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time observation inside a span — e.g. one Dinkelbach
// iteration with its current λ. Events are capped per span by the owning
// trace; excess events are counted as dropped rather than retained.
type Event struct {
	Name  string
	At    time.Time
	Attrs []Attr
}

// Span is one timed node of a trace's span tree. All methods are safe on a
// nil receiver (the disabled path) and safe for concurrent use: mutation is
// serialized by the owning trace's mutex.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	counters []counter
	events   []Event
	children []*Span
}

type counter struct {
	key string
	val int64
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// ContextWithSpan returns ctx with sp installed as the current span.
// Installing a nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil when the context carries
// none (recording disabled).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child span of the context's current span and returns a
// context carrying the child. When the context carries no span — the
// disabled default — it returns (ctx, nil) after a single Value lookup, and
// the nil span absorbs every later method call for free.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tr.startSpan(parent, name)
	if child == nil {
		// Span cap reached: leave the parent installed so descendants
		// still aggregate into the retained part of the tree.
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, child), child
}

// End closes the span, fixing its duration. Multiple End calls (or an End
// after the trace finished) keep the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetAttr sets a string attribute, overwriting an existing key.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.tr.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// AddInt adds delta to an integer counter on the span. Counters are the
// cheap hot-loop primitive: no strings are built, so a per-iteration AddInt
// costs one mutex round trip.
func (s *Span) AddInt(key string, delta int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	for i := range s.counters {
		if s.counters[i].key == key {
			s.counters[i].val += delta
			s.tr.mu.Unlock()
			return
		}
	}
	s.counters = append(s.counters, counter{key: key, val: delta})
	s.tr.mu.Unlock()
}

// AddEvent records a point-in-time event with alternating key/value
// attribute pairs (a trailing key without a value is dropped). Events
// beyond the trace's per-span cap are counted as dropped.
func (s *Span) AddEvent(name string, kv ...string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if len(s.events) >= s.tr.maxEvents {
		s.tr.droppedEvents++
		s.tr.mu.Unlock()
		return
	}
	ev := Event{Name: name, At: time.Now()}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.events = append(s.events, ev)
	s.tr.mu.Unlock()
}

// Trace is one recording session: the root of a span tree plus the caps
// bounding its memory. A Trace is safe for concurrent use by every
// goroutine of the traced computation.
type Trace struct {
	id    uint64
	name  string
	start time.Time

	mu            sync.Mutex
	root          *Span
	nspans        int
	maxSpans      int
	maxEvents     int
	droppedSpans  int64
	droppedEvents int64
	finished      bool
	onFinish      func(*Trace)
}

// Default caps for traces minted without explicit limits.
const (
	DefaultMaxSpans  = 4096
	DefaultMaxEvents = 64
)

// NewTrace starts a standalone recording session (no recorder): the root
// span is open, default caps apply. Use a Collector or Capture to mint
// traces that publish somewhere on Finish.
func NewTrace(name string) *Trace {
	return newTrace(0, name, DefaultMaxSpans, DefaultMaxEvents, nil)
}

func newTrace(id uint64, name string, maxSpans, maxEvents int, onFinish func(*Trace)) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	t := &Trace{
		id:        id,
		name:      name,
		start:     time.Now(),
		maxSpans:  maxSpans,
		maxEvents: maxEvents,
		onFinish:  onFinish,
	}
	t.root = &Span{tr: t, name: name, start: t.start}
	t.nspans = 1
	return t
}

// ID returns the trace id (0 for standalone traces; Collector-minted traces
// get unique ids, the handle used by /debug/trace).
func (t *Trace) ID() uint64 { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Context returns ctx with the trace's root installed as the current span —
// the handoff point between a recorder and the solvers.
func (t *Trace) Context(ctx context.Context) context.Context {
	return ContextWithSpan(ctx, t.root)
}

// startSpan appends a child under parent, honoring the span cap.
func (t *Trace) startSpan(parent *Span, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished || t.nspans >= t.maxSpans {
		t.droppedSpans++
		return nil
	}
	child := &Span{tr: t, name: name, start: time.Now()}
	parent.children = append(parent.children, child)
	t.nspans++
	return child
}

// Finish ends the root span and publishes the trace to its recorder (ring
// buffer insertion, stage-metric aggregation). Finish is idempotent; spans
// started after Finish are dropped.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	if !t.root.ended {
		t.root.ended = true
		t.root.dur = time.Since(t.root.start)
	}
	t.finished = true
	cb := t.onFinish
	t.mu.Unlock()
	if cb != nil {
		cb(t)
	}
}

// Recorder mints traces: the type the facade's WithRecorder option accepts.
// Collector (production: ring buffer + /metrics aggregates) and Capture
// (library/tests: keep the last trace) both implement it.
type Recorder interface {
	// NewTrace opens a recording session; the caller must Finish it.
	NewTrace(name string) *Trace
}

// Capture is the minimal Recorder: it retains the most recently finished
// trace for inspection. Useful for library callers who want one solve's
// span tree without running a collector.
type Capture struct {
	// MaxSpans / MaxEvents bound each trace (0 = package defaults).
	MaxSpans, MaxEvents int

	mu   sync.Mutex
	last *TraceSnapshot
}

// NewTrace implements Recorder.
func (c *Capture) NewTrace(name string) *Trace {
	return newTrace(0, name, c.MaxSpans, c.MaxEvents, func(t *Trace) {
		snap := t.Snapshot()
		c.mu.Lock()
		c.last = snap
		c.mu.Unlock()
	})
}

// Last returns the most recently finished trace's snapshot (nil if none).
func (c *Capture) Last() *TraceSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}
