// Package server implements irshared, a long-running HTTP/JSON service over
// the resource-sharing library: bottleneck decompositions, BD allocations,
// equilibrium utilities, and the Sybil incentive-ratio analysis of rings,
// exposed as five /v1 endpoints.
//
// The service layers three pieces of machinery over the exact solvers:
//
//   - a bounded worker pool (par.Limiter) admitting requests to the heavy
//     computations, with per-request timeouts and cancellation threaded all
//     the way into the Dinkelbach/DP loops,
//   - a size-bounded LRU cache keyed by the canonical exact-rational
//     instance encoding, so repeated graphs reuse decompositions, BD
//     allocations and core.Instance solver state across requests,
//   - micro-batching of /v1/ratio requests: concurrent requests for the
//     same (instance, agent, grid) join one shared optimizer run.
//
// Everything on the wire is exact: rationals are serialized as canonical
// "p/q" strings (decoded by DecodeRat, the codec fuzzed by FuzzRatDecode),
// so API answers are bit-identical to in-process results — the differential
// tests enforce this.
package server

import (
	"fmt"
	"strings"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// maxRatLen bounds one rational on the wire. Canonical forms of every
// quantity the service produces are far shorter; the limit exists so a
// hostile weight string cannot turn into an outsized big.Int parse.
const maxRatLen = 4096

// DecodeRat parses the wire form of an exact rational: an integer "42", a
// fraction "3/4", or a decimal "0.25" (numeric.Parse's grammar), at most
// maxRatLen bytes. This is the single entry point for rationals crossing
// the API boundary, and the target of FuzzRatDecode.
func DecodeRat(s string) (numeric.Rat, error) {
	if len(s) > maxRatLen {
		return numeric.Rat{}, fmt.Errorf("server: rational literal of %d bytes exceeds limit %d", len(s), maxRatLen)
	}
	return numeric.Parse(s)
}

// EncodeRat renders r in the canonical wire form ("n" or "n/d"). It is the
// inverse of DecodeRat on canonical strings: DecodeRat(EncodeRat(r)) == r
// and EncodeRat is a fixed point of the round trip.
func EncodeRat(r numeric.Rat) string { return r.String() }

// decodeRats decodes a weight vector, labeling errors with the field name.
func decodeRats(field string, ss []string) ([]numeric.Rat, error) {
	out := make([]numeric.Rat, len(ss))
	for i, s := range ss {
		r, err := DecodeRat(s)
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", field, i, err)
		}
		if r.Sign() < 0 {
			return nil, fmt.Errorf("%s[%d]: negative weight %s", field, i, s)
		}
		out[i] = r
	}
	return out, nil
}

// encodeRats renders a rational vector in wire form.
func encodeRats(rs []numeric.Rat) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = EncodeRat(r)
	}
	return out
}

// maxWireVertices caps request graphs. The solvers are exact and
// polynomial, but a service must bound the work one request can demand.
const maxWireVertices = 4096

// WireGraph is the JSON form of an instance. Exactly one of the three
// shapes must be used: Ring and Path are conveniences expanding to the
// obvious cycle/path over their weights; the general form gives N, Weights
// and Edges explicitly.
type WireGraph struct {
	N       int      `json:"n,omitempty"`
	Weights []string `json:"weights,omitempty"`
	Edges   [][2]int `json:"edges,omitempty"`
	Ring    []string `json:"ring,omitempty"`
	Path    []string `json:"path,omitempty"`
}

// Build validates the wire graph and constructs the in-memory instance.
func (wg *WireGraph) Build() (*graph.Graph, error) {
	shapes := 0
	for _, on := range []bool{len(wg.Ring) > 0, len(wg.Path) > 0, wg.N > 0 || len(wg.Weights) > 0 || len(wg.Edges) > 0} {
		if on {
			shapes++
		}
	}
	if shapes != 1 {
		return nil, fmt.Errorf("graph: give exactly one of ring, path, or n/weights/edges")
	}
	switch {
	case len(wg.Ring) > 0:
		if len(wg.Ring) < 3 {
			return nil, fmt.Errorf("graph: ring needs at least 3 vertices, got %d", len(wg.Ring))
		}
		if len(wg.Ring) > maxWireVertices {
			return nil, fmt.Errorf("graph: %d vertices exceed limit %d", len(wg.Ring), maxWireVertices)
		}
		ws, err := decodeRats("ring", wg.Ring)
		if err != nil {
			return nil, err
		}
		return graph.Ring(ws), nil
	case len(wg.Path) > 0:
		if len(wg.Path) > maxWireVertices {
			return nil, fmt.Errorf("graph: %d vertices exceed limit %d", len(wg.Path), maxWireVertices)
		}
		ws, err := decodeRats("path", wg.Path)
		if err != nil {
			return nil, err
		}
		return graph.Path(ws), nil
	}
	if wg.N <= 0 || wg.N > maxWireVertices {
		return nil, fmt.Errorf("graph: vertex count %d outside [1, %d]", wg.N, maxWireVertices)
	}
	if len(wg.Weights) != wg.N {
		return nil, fmt.Errorf("graph: %d weights for %d vertices", len(wg.Weights), wg.N)
	}
	ws, err := decodeRats("weights", wg.Weights)
	if err != nil {
		return nil, err
	}
	g := graph.New(wg.N)
	if err := g.SetWeights(ws); err != nil {
		return nil, err
	}
	for i, e := range wg.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= wg.N || v < 0 || v >= wg.N {
			return nil, fmt.Errorf("edges[%d]: (%d,%d) out of range", i, u, v)
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("edges[%d]: %v", i, err)
		}
	}
	return g, nil
}

// CanonicalKey renders g as the canonical exact-rational instance encoding
// used as the cache key: vertex count, canonical weight strings in index
// order, and the sorted edge list. Two requests describing the same
// instance — whether via ring/path shorthand or explicit edges, and
// whatever representation their rationals arrived in ("2/6" vs "1/3") —
// produce the same key.
func CanonicalKey(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d;w", g.N())
	for v := 0; v < g.N(); v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g.Weight(v).String())
	}
	b.WriteString(";e")
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	return b.String()
}

// parseEngine maps the wire engine name (empty = auto) to the solver enum.
func parseEngine(s string) (bottleneck.Engine, error) {
	switch s {
	case "", "auto":
		return bottleneck.EngineAuto, nil
	case "flow":
		return bottleneck.EngineFlow, nil
	case "path-dp":
		return bottleneck.EnginePathDP, nil
	case "brute":
		return bottleneck.EngineBrute, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

// Request and response bodies of the five endpoints. All rationals are
// canonical "p/q" strings; the golden tests pin these shapes.

// DecomposeRequest is the body of POST /v1/decompose.
type DecomposeRequest struct {
	Graph  WireGraph `json:"graph"`
	Engine string    `json:"engine,omitempty"`
}

// WirePair is one bottleneck pair (B_i, C_i, α_i).
type WirePair struct {
	B     []int  `json:"b"`
	C     []int  `json:"c"`
	Alpha string `json:"alpha"`
}

// WireVertex is the per-vertex view of a decomposition.
type WireVertex struct {
	Index   int    `json:"index"`
	Label   string `json:"label"`
	Weight  string `json:"weight"`
	Class   string `json:"class"`
	Alpha   string `json:"alpha"`
	Utility string `json:"utility"`
}

// DecomposeResponse is the body of a /v1/decompose answer.
type DecomposeResponse struct {
	Pairs     []WirePair   `json:"pairs"`
	Vertices  []WireVertex `json:"vertices"`
	Signature string       `json:"signature"`
}

// AllocateRequest is the body of POST /v1/allocate. Mechanism selects the
// allocation backend by registry name ("" = "bd", bit-identical to before
// the field existed; see GET /v1/mechanisms); an unknown name answers 400
// unknown_mechanism. Engine tunes the bottleneck solver and therefore only
// applies to decomposition-based mechanisms.
type AllocateRequest struct {
	Graph     WireGraph `json:"graph"`
	Engine    string    `json:"engine,omitempty"`
	Mechanism string    `json:"mechanism,omitempty"`
}

// WireTransfer is one directed allocation x[from → to] > 0.
type WireTransfer struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	Amount string `json:"amount"`
}

// AllocateResponse is the body of a /v1/allocate answer. Transfers list
// every nonzero x[u → v] in lexicographic (from, to) order.
type AllocateResponse struct {
	Transfers []WireTransfer `json:"transfers"`
	Utilities []string       `json:"utilities"`
}

// UtilitiesRequest is the body of POST /v1/utilities.
type UtilitiesRequest struct {
	Graph  WireGraph `json:"graph"`
	Engine string    `json:"engine,omitempty"`
}

// UtilitiesResponse is the body of a /v1/utilities answer.
type UtilitiesResponse struct {
	Utilities   []string `json:"utilities"`
	Total       string   `json:"total"`
	TotalWeight string   `json:"total_weight"`
}

// RatioRequest is the body of POST /v1/ratio. V is the manipulative agent;
// Grid tunes the optimizer (0 = default 64). The graph must be a ring.
// Cert (equivalently the ?cert=1 query parameter) additionally requests an
// exact-rational certificate of the answer.
type RatioRequest struct {
	Graph WireGraph `json:"graph"`
	V     int       `json:"v"`
	Grid  int       `json:"grid,omitempty"`
	Cert  bool      `json:"cert,omitempty"`
	// Mechanism selects the allocation backend ("" = "bd"). Backends without
	// an exact ring optimizer answer the empirical best over the sweep grid
	// (evals = grid+1 points, pieces = 0); certificates stay bd-only, so
	// cert with any other mechanism answers 400 cert_limit.
	Mechanism string `json:"mechanism,omitempty"`
}

// RatioResponse is the body of a /v1/ratio answer: the attacker's honest
// utility, the optimizer's certified best split and the incentive ratio,
// with the exact Theorem 8 check ratio ≤ 2.
//
// Certificate, present only when the request opted in with cert, is the full
// ratio-cert/v1 certificate: bottleneck covers with Hall-condition flow
// witnesses, per-piece closed forms and the inequality chain. The server
// re-verifies it with the solver-free checker (cert.Check) before answering
// — a self-check failure is a 500 with code cert_invalid, never a silently
// wrong certificate — and clients can re-run cert.Check themselves without
// trusting the server.
//
// Evals is the number of exact split evaluations the optimizer performed,
// cache hits included (for a non-BD mechanism, the number of grid points).
// It is a work count, not part of the answer: a faster optimizer lowers it
// while every other field stays the same.
type RatioResponse struct {
	Honest      string          `json:"honest"`
	BestW1      string          `json:"best_w1"`
	BestU       string          `json:"best_u"`
	Ratio       string          `json:"ratio"`
	LeqTwo      bool            `json:"leq_two"`
	Evals       int             `json:"evals"`
	Pieces      int             `json:"pieces"`
	Certificate *cert.RatioCert `json:"certificate,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: evaluate the split-utility
// curve of agent V at Grid+1 evenly spaced w1 values (0 = default 64).
// Resume, when set, is the resume_token of an earlier partial response for
// the SAME graph, agent and grid; the sweep continues from the token's next
// index instead of index 0. A token minted for a different request is
// rejected with code partial_result.
type SweepRequest struct {
	Graph  WireGraph `json:"graph"`
	V      int       `json:"v"`
	Grid   int       `json:"grid,omitempty"`
	Resume string    `json:"resume,omitempty"`
	// Cert (equivalently ?cert=1) requests a sweep-cert/v1 certificate of
	// the completed sweep segment.
	Cert bool `json:"cert,omitempty"`
	// Mechanism selects the allocation backend ("" = "bd"). Sweep state —
	// cache entries, resume tokens, durable job dedup — is mechanism-scoped:
	// a resume token minted under one mechanism is rejected under another
	// with code partial_result. Certificates stay bd-only (cert_limit).
	Mechanism string `json:"mechanism,omitempty"`
}

// WireSweepPoint is one exactly evaluated split.
type WireSweepPoint struct {
	W1 string `json:"w1"`
	U  string `json:"u"`
}

// SweepResponse is the body of a /v1/sweep answer. A complete sweep covers
// grid indices [0, grid] and omits the partial fields. When the server's
// request timeout (or the client's cancellation) cuts the sweep short, the
// response instead carries the contiguous completed prefix: Partial is
// true, Points covers indices [StartIndex, NextIndex), Best*/Ratio cover
// only those points, and ResumeToken can be sent back in SweepRequest.Resume
// to continue from NextIndex. Prefix points are bit-identical to the same
// points of an uninterrupted run.
//
// Certificate, present only when the request opted in with cert and the
// segment completed (a partial response never carries one — resume first,
// then the final segment is certified), is the sweep-cert/v1 certificate of
// the covered grid indices, self-checked by the server and re-checkable by
// the client via cert.Check.
type SweepResponse struct {
	Points      []WireSweepPoint `json:"points"`
	BestW1      string           `json:"best_w1"`
	BestU       string           `json:"best_u"`
	Honest      string           `json:"honest"`
	Ratio       string           `json:"ratio"`
	Partial     bool             `json:"partial,omitempty"`
	StartIndex  int              `json:"start_index,omitempty"`
	NextIndex   int              `json:"next_index,omitempty"`
	ResumeToken string           `json:"resume_token,omitempty"`
	Certificate *cert.SweepCert  `json:"certificate,omitempty"`
}

// Stable machine-readable error codes. Clients should branch on Code;
// Message and Detail are human-oriented and may be reworded.
const (
	// CodeBadBody: the request body is not valid JSON for the endpoint's
	// schema (syntax error, unknown field, trailing data).
	CodeBadBody = "bad_body"
	// CodeBadEngine: the engine name is not one of auto/flow/path-dp/brute.
	CodeBadEngine = "bad_engine"
	// CodeBadGraph: the wire graph fails validation (wrong shape count,
	// size limits, negative weights, out-of-range edges).
	CodeBadGraph = "bad_graph"
	// CodeNotRing: the endpoint requires a ring graph and got something else.
	CodeNotRing = "not_ring"
	// CodeBadAgent: the manipulative agent index is out of range.
	CodeBadAgent = "bad_agent"
	// CodeBadGrid: the optimizer/sweep grid is outside its allowed range.
	CodeBadGrid = "bad_grid"
	// CodeBusy: no worker slot became free within the queue timeout (503).
	CodeBusy = "busy"
	// CodeClientClosed: the client went away before the answer (499).
	CodeClientClosed = "client_closed"
	// CodeTimeout: the computation exceeded the server-side request timeout.
	CodeTimeout = "timeout"
	// CodeInternal: an unexpected computation failure (500).
	CodeInternal = "internal"
	// CodeNotFound: the referenced resource (e.g. a trace id) does not
	// exist, was evicted, or has expired.
	CodeNotFound = "not_found"
	// CodeInternalPanic: a computation panicked and was contained by the
	// server's recovery barrier (500). The process survives; the request is
	// safe to retry — under chaos testing, retrying converges to the
	// fault-free answer.
	CodeInternalPanic = "internal_panic"
	// CodeOverloaded: the request was shed before queueing because the pool
	// wait queue is saturated (429, with Retry-After). Distinguishes
	// overload (back off and retry) from hard failure.
	CodeOverloaded = "overloaded"
	// CodePartialResult: a sweep resume token is malformed or was minted for
	// a different (graph, agent, grid) than this request (400).
	CodePartialResult = "partial_result"
	// CodeCertLimit: the request asked for a certificate (or an enumeration
	// job) whose size exceeds the server's certification limits (400).
	// Certificates carry per-pair flow witnesses for every evaluated split,
	// so they are capped tighter than the plain endpoints.
	CodeCertLimit = "cert_limit"
	// CodeCertInvalid: the server built a certificate but its own solver-free
	// self-check (cert.Check) rejected it (500). This never ships a wrong
	// certificate: either the response carries a checked certificate or it
	// fails loudly with this code.
	CodeCertInvalid = "cert_invalid"
	// CodeUnknownMechanism: the request's mechanism name is not in the
	// registry (400). GET /v1/mechanisms lists the valid names.
	CodeUnknownMechanism = "unknown_mechanism"
)

// ErrorResponse is the body of every non-2xx answer: a stable
// machine-readable Code, a human-readable Message, and an optional Detail
// carrying underlying error text.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}
