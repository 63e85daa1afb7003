package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sybil"
)

// Certification limits, tighter than the plain compute limits: a certificate
// carries per-pair Hall-condition flow witnesses for every evaluated split,
// so its size (and construction cost) grows with both the ring and the grid.
const (
	// maxCertRingSize caps the ring for any ?cert=1 request.
	maxCertRingSize = 512
	// maxCertSweepGrid caps the sweep grid for ?cert=1 — each of the grid+1
	// points gets a fully witnessed split certificate.
	maxCertSweepGrid = 512
)

// wantCert reports whether the request opted into certification, via either
// the body flag or the ?cert=1 query parameter.
func wantCert(r *http.Request, bodyFlag bool) bool {
	return bodyFlag || r.URL.Query().Get("cert") == "1"
}

// certify runs the trusted-side builder output through the solver-free
// checker, applying the test-only corruption hook first. The returned error
// means the server must answer cert_invalid rather than ship an unchecked
// certificate.
func (s *Server) certify(c cert.Checkable) error {
	if s.corruptCert != nil {
		s.corruptCert(c)
	}
	return cert.Check(c)
}

// certAllowed answers 400 cert_limit unless mechanism m can certify
// answers on a ring of n vertices.
func certAllowed(w http.ResponseWriter, m mechanism.Mechanism, n int) bool {
	if !mechCertifiable(m) {
		WriteError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("certificates are only available for certifiable mechanisms (bd), not %q", m.Name()))
		return false
	}
	if n > maxCertRingSize {
		WriteError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("certificates are limited to rings of at most %d vertices, got %d", maxCertRingSize, n))
		return false
	}
	return true
}

// checked self-checks a freshly built certificate (c, err being the
// builder's result). A context error wins — the deadline, not the
// certificate, failed — and any other failure is a *certError, answered
// cert_invalid rather than shipping an unchecked certificate.
func (s *Server) checked(ctx context.Context, c cert.Checkable, err error) error {
	if err == nil {
		err = s.certify(c)
	}
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return &certError{err}
	}
}

// certError marks a certificate construction or self-check failure.
type certError struct{ err error }

func (e *certError) Error() string { return "certificate self-check: " + e.err.Error() }
func (e *certError) Unwrap() error { return e.err }

// statusClientClosed is nginx's convention for "client closed request";
// it never reaches the client (the connection is gone) but it keeps the
// logs and metrics honest about why the request ended.
const statusClientClosed = 499

// WriteJSON writes a JSON response body with the given status, HTML
// characters unescaped. It is the one JSON writer of irshared and irrouter.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the uniform error body: a stable machine-readable code
// plus a human-readable message.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Code: code, Message: msg})
}

// WriteErrorDetail is WriteError with underlying error text in Detail.
func WriteErrorDetail(w http.ResponseWriter, status int, code, msg, detail string) {
	WriteJSON(w, status, ErrorResponse{Code: code, Message: msg, Detail: detail})
}

// writeComputeError maps a computation error to a status: context errors
// become timeouts/client-gone; injected faults are transient by definition
// and map to a retryable 503 + Retry-After so chaos replays converge under
// client retries; contained panics surface as 500 internal_panic (also
// retryable — the panic poisoned one computation, not the process); a
// failed certificate self-check is a 500 cert_invalid; everything else is a
// plain 500.
func writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *par.PanicError
	var ce *certError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, CodeTimeout, "computation exceeded the request timeout")
	case errors.Is(err, context.Canceled):
		WriteError(w, statusClientClosed, CodeClientClosed, "client canceled")
	case errors.Is(err, fault.ErrInjected):
		retryAfter(w, time.Second)
		WriteErrorDetail(w, http.StatusServiceUnavailable, CodeBusy, "transient fault; retry", err.Error())
	case errors.As(err, &pe):
		WriteErrorDetail(w, http.StatusInternalServerError, CodeInternalPanic,
			"computation panicked; the panic was contained and the request may be retried",
			fmt.Sprint(pe.Value))
	case errors.As(err, &ce):
		WriteErrorDetail(w, http.StatusInternalServerError, CodeCertInvalid,
			"certificate failed the server's solver-free self-check", ce.err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// decodeBody parses the request body into v, rejecting unknown fields and
// trailing garbage so schema drift fails loudly on the client side too.
// When the request is traced, the parse is recorded as a "server.decode"
// stage span.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	_, sp := obs.Start(r.Context(), "server.decode")
	defer sp.End()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteErrorDetail(w, http.StatusBadRequest, CodeBadBody, "invalid request body", err.Error())
		return false
	}
	if dec.More() {
		WriteErrorDetail(w, http.StatusBadRequest, CodeBadBody, "invalid request body", "trailing data")
		return false
	}
	return true
}

// writeResult writes a success body, recorded as the request's
// "server.write" stage span when traced.
func writeResult(w http.ResponseWriter, r *http.Request, v any) {
	_, sp := obs.Start(r.Context(), "server.write")
	WriteJSON(w, http.StatusOK, v)
	sp.End()
}

// entryForWire builds the graph from its wire form and resolves the cache
// entry for its canonical key, recording the hit/miss both on the request's
// span and in the per-endpoint cache metrics.
func (s *Server) entryForWire(w http.ResponseWriter, r *http.Request, wg *WireGraph) (*cacheEntry, bool) {
	return s.entryForKeyed(w, r, wg, CanonicalKey)
}

// entryForKeyed is entryForWire under a caller-chosen key derivation —
// the mechanism-scoped endpoints pass mechKey so backends never share
// cached state (see mechanisms.go).
func (s *Server) entryForKeyed(w http.ResponseWriter, r *http.Request, wg *WireGraph, keyOf func(*graph.Graph) string) (*cacheEntry, bool) {
	g, err := wg.Build()
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadGraph, err.Error())
		return nil, false
	}
	if err := fault.Hit(r.Context(), fault.SiteCacheGet); err != nil {
		writeComputeError(w, r, err)
		return nil, false
	}
	entry, hit := s.cache.entryFor(keyOf(g), g)
	s.metrics.cacheLookup(r.URL.Path, hit)
	if sp := obs.FromContext(r.Context()); sp != nil {
		if hit {
			sp.AddInt("cache_hit", 1)
		} else {
			sp.AddInt("cache_miss", 1)
		}
	}
	return entry, true
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := bottleneck.ParseEngine(req.Engine)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadEngine, err.Error())
		return
	}
	entry, ok := s.entryForWire(w, r, &req.Graph)
	if !ok {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	d, err := entry.decomposition(cctx, engine)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	resp := DecomposeResponse{
		Pairs:     make([]WirePair, len(d.Pairs)),
		Vertices:  make([]WireVertex, entry.g.N()),
		Signature: d.StructureSignature(),
	}
	for i, p := range d.Pairs {
		resp.Pairs[i] = WirePair{B: p.B, C: p.C, Alpha: EncodeRat(p.Alpha)}
	}
	for v := 0; v < entry.g.N(); v++ {
		resp.Vertices[v] = WireVertex{
			Index:   v,
			Label:   entry.g.Label(v),
			Weight:  EncodeRat(entry.g.Weight(v)),
			Class:   d.ClassOf(v).String(),
			Alpha:   EncodeRat(d.AlphaOf(v)),
			Utility: EncodeRat(d.Utility(entry.g, v)),
		}
	}
	writeResult(w, r, resp)
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req AllocateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := bottleneck.ParseEngine(req.Engine)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadEngine, err.Error())
		return
	}
	m, ok := resolveWireMechanism(w, req.Mechanism)
	if !ok {
		return
	}
	if _, decomposes := m.(mechanism.Decomposer); !decomposes && req.Engine != "" && req.Engine != "auto" {
		WriteError(w, http.StatusBadRequest, CodeBadEngine,
			fmt.Sprintf("engine selection applies to decomposition-based mechanisms, not %q", m.Name()))
		return
	}
	entry, ok := s.entryForMech(w, r, &req.Graph, m)
	if !ok {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	a, err := entry.mechAllocation(cctx, m, engine)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	resp := AllocateResponse{Transfers: []WireTransfer{}, Utilities: make([]string, entry.g.N())}
	for _, e := range entry.g.Edges() {
		for _, dir := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			if amt := a.Get(dir[0], dir[1]); !amt.IsZero() {
				resp.Transfers = append(resp.Transfers, WireTransfer{From: dir[0], To: dir[1], Amount: EncodeRat(amt)})
			}
		}
	}
	sortTransfers(resp.Transfers)
	for v := 0; v < entry.g.N(); v++ {
		resp.Utilities[v] = EncodeRat(a.Utility(v))
	}
	writeResult(w, r, resp)
}

// sortTransfers orders by (from, to) so the wire format is deterministic.
func sortTransfers(ts []WireTransfer) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && (ts[j].From < ts[j-1].From || (ts[j].From == ts[j-1].From && ts[j].To < ts[j-1].To)); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func (s *Server) handleUtilities(w http.ResponseWriter, r *http.Request) {
	var req UtilitiesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := bottleneck.ParseEngine(req.Engine)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadEngine, err.Error())
		return
	}
	entry, ok := s.entryForWire(w, r, &req.Graph)
	if !ok {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	d, err := entry.decomposition(cctx, engine)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	us := d.Utilities(entry.g)
	total := numeric.Zero
	for _, u := range us {
		total = total.Add(u)
	}
	writeResult(w, r, UtilitiesResponse{
		Utilities:   encodeRats(us),
		Total:       EncodeRat(total),
		TotalWeight: EncodeRat(entry.g.TotalWeight()),
	})
}

func (s *Server) handleRatio(w http.ResponseWriter, r *http.Request) {
	var req RatioRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Grid < 0 || req.Grid > 4096 {
		WriteError(w, http.StatusBadRequest, CodeBadGrid, "grid outside [0, 4096]")
		return
	}
	entry, m, ok := s.validateAgent(w, r, &req.Graph, req.V, req.Mechanism, "ratio")
	if !ok {
		return
	}
	withCert := wantCert(r, req.Cert)
	if withCert && !certAllowed(w, m, entry.g.N()) {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	// A finished answer is memoized on the entry, so a repeated ratio is a
	// lookup. Otherwise micro-batch: concurrent ratio requests for the same
	// (instance, agent, grid) share one run over the entry's shared solver
	// state. The run is detached from any single request (computeBase), so
	// its solver spans cannot hang off a request's trace; instead an exact
	// run opens its own collector trace, and every request's compute span
	// records that trace's id plus whether it hit the memo, joined the run
	// or opened it.
	cctx, csp := obs.Start(ctx, "server.compute")
	k := ratioKey{req.V, req.Grid}
	rb, hit := entry.ratio(k)
	var (
		joined bool
		err    error
	)
	if hit {
		s.metrics.ratioMemoHits.Add(1)
	} else {
		var val any
		key := fmt.Sprintf("%s|v=%d|grid=%d", entry.key, req.V, req.Grid)
		val, joined, err = s.batch.do(cctx, key, s.computeBase, func(runCtx context.Context) (any, error) {
			if err := fault.Hit(runCtx, fault.SiteServerBatch); err != nil {
				return nil, err
			}
			run, err := s.ratioRun(runCtx, entry, m, req.V, req.Grid)
			if err != nil {
				return nil, err
			}
			entry.storeRatio(k, run)
			return run, nil
		})
		if err == nil {
			rb = val.(ratioBatchResult)
		}
	}
	if csp != nil {
		switch {
		case hit:
			csp.AddInt("ratio_memo_hit", 1)
		case joined:
			csp.AddInt("batch_joined", 1)
		default:
			csp.AddInt("batch_opened", 1)
		}
		if rb.trace != 0 {
			csp.SetAttr("batch_trace", strconv.FormatUint(rb.trace, 10))
		}
	}
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	resp := rb.resp
	if withCert {
		// Certification happens outside the batch: the optimizer answer is
		// shared, the certificate is per-request. The builder re-derives every
		// quantity exactly and the solver-free checker gates the response.
		in, err := entry.instance(ctx, req.V) // cached by the batch computation
		if err == nil {
			resp.Certificate, err = build.Ratio(ctx, in, rb.opt)
			err = s.checked(ctx, resp.Certificate, err)
		}
		if err != nil {
			writeComputeError(w, r, err)
			return
		}
	}
	writeResult(w, r, resp)
}

// ratioBatchResult is the shared answer of one batched ratio computation:
// the response body, the optimizer result of an exact run (for its
// certificate), and the id of the collector trace that recorded the run (0
// when tracing is disabled or the run was a grid sweep). The entry memoizes
// it, so every later request for the same answer shares it too.
type ratioBatchResult struct {
	resp  RatioResponse
	opt   *core.OptResult
	trace uint64
}

// ratioRun computes one ratio answer on a batch's context: the exact
// optimizer over the entry's instance for agent v, or, for a mechanism
// without one, the empirical best over the sweep grid (default 64),
// computed by the same run as /v1/sweep.
func (s *Server) ratioRun(ctx context.Context, entry *cacheEntry, m mechanism.Mechanism, v, grid int) (ratioBatchResult, error) {
	var rb ratioBatchResult
	if _, exact := m.(mechanism.RingOptimizer); !exact {
		res, err := s.runSweep(ctx, entry, m, v, grid, 0, nil, nil)
		if err != nil {
			return rb, err
		}
		if res.Partial {
			// The batch deadline cut the sweep short; a grid ratio has no
			// resume protocol (that's /v1/sweep), so report the timeout.
			return rb, context.DeadlineExceeded
		}
		rb.resp = RatioResponse{
			Honest: EncodeRat(res.Honest), BestW1: EncodeRat(res.BestW1), BestU: EncodeRat(res.BestU),
			Ratio: EncodeRat(res.Ratio), LeqTwo: res.Ratio.LessEq(numeric.Two), Evals: len(res.Points),
		}
		return rb, nil
	}
	if s.collector != nil {
		tr := s.collector.NewTrace("/v1/ratio#compute")
		rb.trace = tr.ID()
		ctx = tr.Context(ctx)
		defer tr.Finish()
	}
	in, err := entry.instance(ctx, v)
	if err != nil {
		return rb, err
	}
	if rb.opt, err = in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: grid}); err != nil {
		return rb, err
	}
	rb.resp = RatioResponse{
		Honest: EncodeRat(in.HonestU), BestW1: EncodeRat(rb.opt.BestW1), BestU: EncodeRat(rb.opt.BestU),
		Ratio: EncodeRat(rb.opt.Ratio), LeqTwo: rb.opt.Ratio.LessEq(numeric.Two),
		Evals: rb.opt.Evals, Pieces: len(rb.opt.Pieces),
	}
	return rb, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	entry, m, grid, ok := s.validateSweep(w, r, &req.Graph, req.V, req.Grid, req.Mechanism)
	if !ok {
		return
	}
	withCert := wantCert(r, req.Cert)
	if withCert && !certAllowed(w, m, entry.g.N()) {
		return
	}
	if withCert && grid > maxCertSweepGrid {
		WriteError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("sweep certificates are limited to grids of at most %d, got %d", maxCertSweepGrid, grid))
		return
	}
	start := 0
	if req.Resume != "" {
		tok, err := decodeResumeToken(req.Resume)
		if err != nil {
			WriteErrorDetail(w, http.StatusBadRequest, CodePartialResult, "invalid resume token", err.Error())
			return
		}
		if tok.Key != entry.key || tok.V != req.V || tok.Grid != grid {
			WriteError(w, http.StatusBadRequest, CodePartialResult,
				"resume token was minted for a different graph, agent, grid, or mechanism")
			return
		}
		if tok.Next < 0 || tok.Next > grid {
			WriteError(w, http.StatusBadRequest, CodePartialResult, "resume token index out of range")
			return
		}
		start = tok.Next
	}
	s.serveRun(w, r, func(ctx context.Context) (any, error) {
		res, err := s.runSweep(ctx, entry, m, req.V, grid, start, nil, nil)
		if err != nil {
			return nil, err
		}
		resp := wireSweep(res)
		if start > 0 || res.Partial {
			resp.StartIndex, resp.NextIndex = res.Start, res.NextIndex
		}
		if res.Partial {
			resp.Partial = true
			resp.ResumeToken = encodeResumeToken(resumeToken{Key: entry.key, V: req.V, Grid: grid, Next: res.NextIndex})
		}
		// A partial segment skips the certificate — its context is already
		// at the deadline and the client resumes anyway; the final resumed
		// segment carries the certificate of its covered indices.
		if withCert && !res.Partial && len(res.Points) > 0 {
			in, err := entry.instance(ctx, req.V)
			if err == nil {
				resp.Certificate, err = build.Sweep(ctx, in, res, grid)
				err = s.checked(ctx, resp.Certificate, err)
			}
			if err != nil {
				return nil, err
			}
		}
		return resp, nil
	})
}

// serveRun answers an inline request with the run its job kind shares:
// admission, one "server.compute" span around run, and the error mapping.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, run func(ctx context.Context) (any, error)) {
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	resp, err := run(cctx)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	writeResult(w, r, resp)
}

// runSweep evaluates the split-utility curve of m on the entry's ring from
// grid index start (after the checkpointed prefix, for a job): the one run
// behind /v1/sweep, the empirical /v1/ratio, and sweep jobs. Inline, points
// run in parallel and a deadline yields the completed prefix (Partial). BD
// points run on the entry's cached core.Instance.
func (s *Server) runSweep(ctx context.Context, entry *cacheEntry, m mechanism.Mechanism, v, grid, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (*sybil.SweepResult, error) {
	sp, err := mechanism.NewSplitter(ctx, m, entry.g, v, 2, func(ctx context.Context) (*core.Instance, error) {
		return entry.instance(ctx, v)
	})
	if err != nil {
		return nil, err
	}
	sw := sp.Sweep(grid)
	r, err := sweepCodec.run(ctx, sw.Scan, par.Workers(0), start, prefix, ckpt)
	if err != nil {
		return nil, err
	}
	return sw.Result(r)
}

// sweepCodec checkpoints a sweep's points as canonical (w1, u) strings.
var sweepCodec = pointCodec[sybil.SweepPoint]{
	enc: func(_ int, p sybil.SweepPoint) (jobs.Point, error) {
		return jobs.Point{W1: EncodeRat(p.W1), U: EncodeRat(p.U)}, nil
	},
	dec: func(p jobs.Point) (sybil.SweepPoint, error) {
		w1, err := DecodeRat(p.W1)
		if err != nil {
			return sybil.SweepPoint{}, fmt.Errorf("corrupt w1: %w", err)
		}
		u, err := DecodeRat(p.U)
		if err != nil {
			return sybil.SweepPoint{}, fmt.Errorf("corrupt u: %w", err)
		}
		return sybil.SweepPoint{W1: w1, U: u}, nil
	},
}

// wireSweep renders a sweep result's points, best split, and ratio.
func wireSweep(res *sybil.SweepResult) *SweepResponse {
	resp := &SweepResponse{Points: make([]WireSweepPoint, len(res.Points))}
	for i, p := range res.Points {
		resp.Points[i] = WireSweepPoint{W1: EncodeRat(p.W1), U: EncodeRat(p.U)}
	}
	resp.BestW1, resp.BestU = EncodeRat(res.BestW1), EncodeRat(res.BestU)
	resp.Honest, resp.Ratio = EncodeRat(res.Honest), EncodeRat(res.Ratio)
	return resp
}
