// Package client is the public Go client for the irshared service: typed
// calls for every /v1 endpoint — compute, mechanism discovery, tournaments,
// and durable jobs — with context-aware retries.
//
// Transient failures — 429 overload shedding, 503 queue/chaos busyness,
// 504 server-side timeouts, contained panics (500 internal_panic) and
// transport-level errors — are retried with capped exponential backoff and
// deterministic jitter, honoring the server's Retry-After header as a floor
// on the delay. All endpoints are pure computations, so retrying a POST is
// safe: the server either answers bit-identically (the instance cache makes
// repeats cheap) or sheds again.
//
// SweepAll layers automatic resumption on top: when /v1/sweep returns a
// partial result (the server's request timeout cut the sweep short), the
// client feeds the resume token back until the sweep completes, then merges
// the segments into one exact result — bit-identical to an uninterrupted
// sweep, because every grid point is independent and exact.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Wire types are shared with the server package via aliases, so the request
// and response shapes cannot drift between the two ends.
type (
	// Graph is the wire form of an instance (ring/path shorthand or explicit
	// n/weights/edges).
	Graph = server.WireGraph
	// DecomposeRequest is the body of POST /v1/decompose.
	DecomposeRequest = server.DecomposeRequest
	// DecomposeResponse is the answer of /v1/decompose.
	DecomposeResponse = server.DecomposeResponse
	// AllocateRequest is the body of POST /v1/allocate.
	AllocateRequest = server.AllocateRequest
	// AllocateResponse is the answer of /v1/allocate.
	AllocateResponse = server.AllocateResponse
	// UtilitiesRequest is the body of POST /v1/utilities.
	UtilitiesRequest = server.UtilitiesRequest
	// UtilitiesResponse is the answer of /v1/utilities.
	UtilitiesResponse = server.UtilitiesResponse
	// RatioRequest is the body of POST /v1/ratio.
	RatioRequest = server.RatioRequest
	// RatioResponse is the answer of /v1/ratio.
	RatioResponse = server.RatioResponse
	// SweepRequest is the body of POST /v1/sweep.
	SweepRequest = server.SweepRequest
	// WireSweepPoint is one exactly evaluated split of a sweep.
	WireSweepPoint = server.WireSweepPoint
	// SweepResponse is the answer of /v1/sweep (possibly partial).
	SweepResponse = server.SweepResponse
	// MechanismsResponse is the answer of GET /v1/mechanisms: every
	// registered backend in sorted name order with capability flags.
	MechanismsResponse = server.MechanismsResponse
	// TournamentInstance is one arena of a tournament: a ring graph and the
	// attacker vertex.
	TournamentInstance = server.TournamentWireInstance
	// TournamentRequest is the body of POST /v1/tournament.
	TournamentRequest = server.TournamentRequest
	// TournamentCell is one (instance, mechanism) evaluation of a tournament.
	TournamentCell = server.WireTournamentCell
	// MechanismSummary aggregates one mechanism's tournament column.
	MechanismSummary = server.WireMechanismSummary
	// TournamentResponse is the answer of /v1/tournament (and the final
	// result of a kind "tournament" job).
	TournamentResponse = server.TournamentResponse
	// JobSubmitRequest is the body of POST /v1/jobs.
	JobSubmitRequest = server.JobSubmitRequest
	// EnumJobRequest parameterizes a kind "enumerate" job: exhaustive
	// small-n certification over a rational weight lattice.
	EnumJobRequest = server.EnumJobRequest
	// JobSubmitResponse is the answer of POST /v1/jobs.
	JobSubmitResponse = server.JobSubmitResponse
	// Job is the API view of one durable background job.
	Job = server.WireJob
	// JobListResponse is the answer of GET /v1/jobs.
	JobListResponse = server.JobListResponse
	// ErrorResponse is the body of every non-2xx answer.
	ErrorResponse = server.ErrorResponse
)

// APIError is a non-2xx answer from the service, carrying the machine-
// readable error code and, when the server sent one, its Retry-After hint.
type APIError struct {
	Status     int           // HTTP status code
	Code       string        // stable code from the error catalogue
	Message    string        // human-readable message
	Detail     string        // optional underlying error text
	RetryAfter time.Duration // parsed Retry-After header (0 if absent)
}

func (e *APIError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("irshared: %d %s: %s (%s)", e.Status, e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("irshared: %d %s: %s", e.Status, e.Code, e.Message)
}

// Retryable reports whether the request that produced this error is worth
// repeating: overload shedding, queue/chaos busyness, gateway failures
// (502/504 — a cluster router answering for a backend it lost), server-side
// timeouts, and contained panics are all transient by the server's
// contract; input errors (4xx) and plain internal errors are not.
func (e *APIError) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return e.Code == server.CodeInternalPanic
}

// Client talks to an irshared service — one base URL, or a list of
// equivalent ones (replicated routers, or the cluster's nodes directly).
// Requests stick to the current base; a node-level failure (transport
// error, 502, 504) rotates to the next before the retry, so one dead
// address costs one backoff instead of exhausting every attempt. It is safe
// for concurrent use.
type Client struct {
	bases          []string
	cur            atomic.Uint32
	hc             *http.Client
	maxAttempts    int
	baseDelay      time.Duration
	maxDelay       time.Duration
	stallThreshold int
	onRetry        func(attempt int, err error, delay time.Duration)
	sleep          func(ctx context.Context, d time.Duration) error // waits out every backoff

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default:
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxAttempts bounds the total tries per call, including the first
// (default 5; values < 1 mean 1 — no retries).
func WithMaxAttempts(n int) Option {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.maxAttempts = n
	}
}

// WithBackoff sets the first-retry delay and the cap on the exponentially
// growing delay (defaults 100ms and 5s). The server's Retry-After, when
// present, acts as a floor regardless of these values.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.baseDelay = base
		}
		if max > 0 {
			c.maxDelay = max
		}
	}
}

// WithSeed makes the retry jitter deterministic — chaos tests replay the
// exact same retry schedule run after run.
func WithSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithRetryHook installs an observer called before every retry sleep with
// the failed attempt number (1-based), the error, and the chosen delay.
func WithRetryHook(f func(attempt int, err error, delay time.Duration)) Option {
	return func(c *Client) { c.onRetry = f }
}

// WithFallbacks appends alternative base URLs tried — in order, wrapping —
// when the current base fails at the node level: a transport error
// (connection refused/reset, EOF) or a gateway error (502/504). Server-
// answered backpressure (429/503) stays on the same base, since it proves
// the node is alive and its Retry-After is about that node's queue.
func WithFallbacks(bases ...string) Option {
	return func(c *Client) {
		for _, b := range bases {
			c.bases = append(c.bases, strings.TrimRight(b, "/"))
		}
	}
}

// WithStallThreshold sets how many consecutive zero-progress rounds SweepAll
// tolerates before giving up (default: the client's max attempts — the
// historical behavior). Raise it for servers whose request timeout sits
// close to the cost of a single grid point; values < 1 keep the default.
func WithStallThreshold(n int) Option {
	return func(c *Client) {
		if n >= 1 {
			c.stallThreshold = n
		}
	}
}

// New builds a client for the service at base (e.g. "http://127.0.0.1:8080").
// Additional equivalent endpoints can be supplied with WithFallbacks.
func New(base string, opts ...Option) *Client {
	c := &Client{
		bases:       []string{strings.TrimRight(base, "/")},
		hc:          http.DefaultClient,
		maxAttempts: 5,
		baseDelay:   100 * time.Millisecond,
		maxDelay:    5 * time.Second,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:       sleep,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// pickBase snapshots the current base URL with its rotation epoch.
func (c *Client) pickBase() (string, uint32) {
	epoch := c.cur.Load()
	return c.bases[int(epoch)%len(c.bases)], epoch
}

// rotateBase advances past the base that failed at epoch. The CAS makes
// concurrent failures on the same base advance the rotation once, not once
// per in-flight request.
func (c *Client) rotateBase(epoch uint32) {
	if len(c.bases) > 1 {
		c.cur.CompareAndSwap(epoch, epoch+1)
	}
}

// Decompose calls POST /v1/decompose.
func (c *Client) Decompose(ctx context.Context, req *DecomposeRequest) (*DecomposeResponse, error) {
	var resp DecomposeResponse
	if err := c.do(ctx, "/v1/decompose", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Allocate calls POST /v1/allocate.
func (c *Client) Allocate(ctx context.Context, req *AllocateRequest) (*AllocateResponse, error) {
	var resp AllocateResponse
	if err := c.do(ctx, "/v1/allocate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Utilities calls POST /v1/utilities.
func (c *Client) Utilities(ctx context.Context, req *UtilitiesRequest) (*UtilitiesResponse, error) {
	var resp UtilitiesResponse
	if err := c.do(ctx, "/v1/utilities", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ratio calls POST /v1/ratio.
func (c *Client) Ratio(ctx context.Context, req *RatioRequest) (*RatioResponse, error) {
	var resp RatioResponse
	if err := c.do(ctx, "/v1/ratio", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sweep calls POST /v1/sweep once. The answer may be partial (Partial set,
// ResumeToken present) when the server's request timeout cut the sweep
// short; use SweepAll to resume automatically.
func (c *Client) Sweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	var resp SweepResponse
	if err := c.do(ctx, "/v1/sweep", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Mechanisms calls GET /v1/mechanisms: the registered allocation backends,
// sorted by name. Any listed name is valid in the "mechanism" field of
// Allocate, Ratio, Sweep, sweep jobs, and tournament mechanism sets.
func (c *Client) Mechanisms(ctx context.Context) (*MechanismsResponse, error) {
	var resp MechanismsResponse
	if err := c.doMethod(ctx, http.MethodGet, "/v1/mechanisms", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Tournament calls POST /v1/tournament: every selected mechanism evaluated
// on every instance under one attack grid. For long grids or many
// instances, submit a kind "tournament" job via SubmitJob instead.
func (c *Client) Tournament(ctx context.Context, req *TournamentRequest) (*TournamentResponse, error) {
	var resp TournamentResponse
	if err := c.do(ctx, "/v1/tournament", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// do POSTs the JSON body and decodes the answer into out.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	return c.doMethod(ctx, http.MethodPost, path, in, out)
}

// doMethod performs one JSON exchange with the given method (in == nil
// sends no body, as GET/DELETE do) and decodes the answer into out,
// retrying transient failures with backoff until the context dies or
// attempts run out. The request body is marshaled once and replayed per
// attempt; every endpoint is either a pure computation or idempotent
// (submission is content-addressed, cancellation converges), so replaying
// any method is safe.
func (c *Client) doMethod(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	var err error
	for attempt := 1; ; attempt++ {
		base, epoch := c.pickBase()
		err = c.once(ctx, method, base+path, body, out)
		if err == nil {
			return nil
		}
		if nodeFailure(err) {
			c.rotateBase(epoch)
		}
		if !retryable(err) || attempt >= c.maxAttempts {
			return err
		}
		delay := c.delay(attempt, err)
		if c.onRetry != nil {
			c.onRetry(attempt, err, delay)
		}
		if serr := c.sleep(ctx, delay); serr != nil {
			return fmt.Errorf("client: %w (last error: %v)", serr, err)
		}
	}
}

// once performs a single HTTP exchange against the given absolute URL.
func (c *Client) once(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < http.StatusOK || resp.StatusCode >= http.StatusMultipleChoices {
		apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		var body ErrorResponse
		if json.Unmarshal(raw, &body) == nil && body.Code != "" {
			apiErr.Code, apiErr.Message, apiErr.Detail = body.Code, body.Message, body.Detail
		} else {
			apiErr.Code = "http_" + strconv.Itoa(resp.StatusCode)
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		return apiErr
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// retryable classifies an error from once: API errors answer for themselves;
// everything else is transport-level (connection refused/reset, EOF) and
// retryable unless it is really the caller's context giving up.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// nodeFailure reports whether the error indicts the base URL itself rather
// than the request: any transport error (connection refused/reset, EOF —
// but not the caller's own context dying) and the gateway statuses a router
// answers when its backend is gone. These rotate the client to its next
// base; per-node backpressure (429/503) does not.
func nodeFailure(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusBadGateway || apiErr.Status == http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// delay picks the sleep before retry attempt+1: exponential growth from
// baseDelay capped at maxDelay, halved-plus-jitter so concurrent clients
// decorrelate, then floored at the server's Retry-After when it sent one.
func (c *Client) delay(attempt int, err error) time.Duration {
	d := c.baseDelay << (attempt - 1)
	if d > c.maxDelay || d <= 0 { // <= 0 catches shift overflow
		d = c.maxDelay
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

// parseRetryAfter understands both legal Retry-After forms of RFC 9110
// §10.2.3: delta-seconds ("120") and an HTTP-date ("Fri, 31 Dec 1999
// 23:59:59 GMT", plus the obsolete RFC 850 and asctime layouts via
// http.ParseTime). The service itself emits delta-seconds, but proxies and
// load balancers in front of it rewrite to dates; a date in the past (or
// anything unparseable) yields 0 — no floor on the backoff.
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(s); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
