package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cert/enum"
	"repro/internal/jobs"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/scan"
)

// jobKind is one durable job kind. The table of kinds drives job
// submission, execution, the list filter, TotalPoints, and cluster
// placement.
type jobKind struct {
	name string
	// submit validates a submission like the kind's inline endpoint
	// (answering the 4xx itself) into the persisted spec, the job's content
	// address — equal for equivalent submissions, which dedupe — and its
	// point count.
	submit func(s *Server, w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (spec any, key string, total int, ok bool)
	// run executes a persisted spec from rec.NextIndex after the
	// checkpointed prefix rec.Points, returning the inline answer's body.
	run func(s *Server, ctx context.Context, rec *jobs.Record, ckpt jobs.CheckpointFunc) (any, error)
	// total reads the point count back from a persisted spec.
	total func(spec []byte) int
	// graph, for kinds bound to one instance, returns a submission's graph
	// and mechanism name (see JobPlacementKey).
	graph func(req *JobSubmitRequest) (*WireGraph, string)
}

// kindOf adapts a kind's typed spec runner and point count to the table.
func kindOf[S any](name string,
	submit func(s *Server, w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (any, string, int, bool),
	run func(s *Server, ctx context.Context, spec *S, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error),
	total func(spec *S) int,
	graph func(req *JobSubmitRequest) (*WireGraph, string),
) *jobKind {
	return &jobKind{
		name:   name,
		submit: submit,
		run: func(s *Server, ctx context.Context, rec *jobs.Record, ckpt jobs.CheckpointFunc) (any, error) {
			var spec S
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				return nil, fmt.Errorf("corrupt job spec: %w", err)
			}
			return run(s, ctx, &spec, rec.NextIndex, rec.Points, ckpt)
		},
		total: func(raw []byte) int {
			var spec S
			if json.Unmarshal(raw, &spec) != nil {
				return 0
			}
			return total(&spec)
		},
		graph: graph,
	}
}

// jobKinds lists every job kind; "sweep" is the default.
var jobKinds = []*jobKind{
	kindOf("sweep", (*Server).submitSweep, (*Server).sweepJob,
		func(spec *sweepJobSpec) int { return spec.Grid + 1 },
		func(req *JobSubmitRequest) (*WireGraph, string) { return &req.Graph, req.Mechanism }),
	kindOf("enumerate", (*Server).submitEnum, (*Server).enumJob,
		func(spec *enumJobSpec) int { return spec.Total }, nil),
	kindOf("tournament", (*Server).submitTournament, (*Server).runTournament,
		func(spec *tournamentJobSpec) int { return spec.Total }, nil),
	kindOf("ksybil", (*Server).submitScenario, (*Server).runScenario, scenarioTotal, scenarioGraph),
	kindOf("coalition", (*Server).submitScenario, (*Server).runScenario, scenarioTotal, scenarioGraph),
	kindOf("topology", (*Server).submitScenario, (*Server).runScenario, scenarioTotal, nil),
}

// scenarioTotal is the point count pinned in a scenario spec.
func scenarioTotal(spec *scenarioJobSpec) int { return spec.Total }

// jobKindOf resolves a kind name ("" = "sweep"), or nil when unknown.
func jobKindOf(name string) *jobKind {
	if name == "" {
		name = "sweep"
	}
	for _, k := range jobKinds {
		if k.name == name {
			return k
		}
	}
	return nil
}

// jobKindList renders the kind names for error messages: "a, b, or c".
func jobKindList() string {
	names := make([]string, len(jobKinds))
	for i, k := range jobKinds {
		names[i] = k.name
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// JobPlacementKey derives the cluster ring key of a job submission. Kinds
// bound to one instance hash like the inline endpoints (PlacementKey), so
// the job lands where that instance's cache is warm; other kinds hash their
// canonical submission. The priority and checkpoint, which do not change
// the job, are ignored. ok is false for an unknown kind or invalid graph.
func JobPlacementKey(req *JobSubmitRequest) (string, bool) {
	kind := jobKindOf(req.Kind)
	if kind == nil {
		return "", false
	}
	if kind.graph != nil {
		wg, mech := kind.graph(req)
		if wg == nil {
			return "", false
		}
		key, err := PlacementKey(wg, mech)
		return key, err == nil
	}
	canon := *req
	canon.Priority, canon.Checkpoint = 0, nil
	raw, err := json.Marshal(&canon)
	if err != nil {
		return "", false
	}
	return "jobs|" + kind.name + "|" + string(raw), true
}

// pointCodec is a kind's checkpoint encoding: one evaluated point of its
// scan as one jobs.Point.
type pointCodec[P any] struct {
	enc func(i int, p P) (jobs.Point, error)
	dec func(p jobs.Point) (P, error)
}

// run evaluates sc from start after the decoded checkpoint prefix (points
// [0, start) of an interrupted job). Inline (ckpt nil) points run on
// workers; a job checkpoints each new point, one after another. The result
// spans the prefix and the new points.
func (c pointCodec[P]) run(ctx context.Context, sc scan.Scan[P], workers, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (*scan.Result[P], error) {
	pts := make([]P, 0, sc.Len)
	for i, p := range prefix {
		v, err := c.dec(p)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, err)
		}
		pts = append(pts, v)
	}
	opts := scan.Options[P]{Start: start, Workers: workers}
	if ckpt != nil {
		opts.Workers = 1
		opts.OnPoint = func(i int, p P) error {
			pt, err := c.enc(i, p)
			if err != nil {
				return err
			}
			return ckpt(i, []jobs.Point{pt})
		}
	}
	r, err := scan.Run(ctx, sc, opts)
	if err != nil {
		return nil, err
	}
	r.Points = append(pts, r.Points...)
	r.Start -= len(prefix)
	return r, nil
}

// runFold runs a kind's scan sequentially after its checkpointed prefix and
// folds the complete point set; a run the context cut short is an error.
func runFold[P, R any](ctx context.Context, sc scan.Scan[P], c pointCodec[P], start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc, fold func(*scan.Result[P]) (R, error)) (R, error) {
	var zero R
	r, err := c.run(ctx, sc, 1, start, prefix, ckpt)
	if err != nil {
		return zero, err
	}
	if r.Partial {
		return zero, ctx.Err()
	}
	return fold(r)
}

// seedPoints validates a submission checkpoint against the job's point
// count and converts it to the store's seed form. A nil checkpoint is a
// plain submission. The content of the points is deliberately not
// re-verified here — the seed's provenance is a checkpoint the source node
// already persisted, and the runner re-parses every point on execution, so
// a corrupt seed fails the job loudly instead of poisoning the result.
func seedPoints(w http.ResponseWriter, ck *JobCheckpoint, total int) ([]jobs.Point, bool) {
	if ck == nil {
		return nil, true
	}
	if ck.NextIndex != len(ck.Points) {
		WriteError(w, http.StatusBadRequest, CodeBadBody,
			fmt.Sprintf("checkpoint next_index %d must equal len(points) %d", ck.NextIndex, len(ck.Points)))
		return nil, false
	}
	if len(ck.Points) > total {
		WriteError(w, http.StatusBadRequest, CodeBadBody,
			fmt.Sprintf("checkpoint carries %d points but the job has only %d", len(ck.Points), total))
		return nil, false
	}
	pts := make([]jobs.Point, len(ck.Points))
	for i, p := range ck.Points {
		pts[i] = jobs.Point{W1: p.W1, U: p.U}
	}
	return pts, true
}

// jobsEnabled answers 501 jobs_disabled for the /v1/jobs API of a server
// started without a data directory.
func (s *Server) jobsEnabled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.jobSched == nil {
			WriteError(w, http.StatusNotImplemented, CodeJobsDisabled, "durable jobs are disabled: start the server with -data-dir")
			return
		}
		h(w, r)
	}
}

// handleJobSubmit is POST /v1/jobs: validate exactly like the corresponding
// inline endpoint, then hand the work to the durable scheduler instead of
// computing inline. The submission is fsync'd before the response: an
// acknowledged job survives any crash and is recovered — checkpointed
// prefix intact — on the next boot.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	kind := jobKindOf(req.Kind)
	if kind == nil {
		WriteError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("unknown job kind %q (want %s)", req.Kind, jobKindList()))
		return
	}
	spec, key, total, ok := kind.submit(s, w, r, &req)
	if !ok {
		return
	}
	seed, ok := seedPoints(w, req.Checkpoint, total)
	if !ok {
		return
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	rec, enqueued, err := s.jobSched.Submit(r.Context(), jobs.Submission{
		Key:      key,
		Kind:     kind.name,
		Spec:     raw,
		Priority: req.Priority,
		Seed:     seed,
	})
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	status := http.StatusAccepted
	if !enqueued {
		status = http.StatusOK
	}
	WriteJSON(w, status, JobSubmitResponse{Job: wireJob(rec, false), Deduped: !enqueued})
}

// persistedMechanism is the mechanism name a spec records: empty for the
// default, so specs and job addresses of default-backend submissions stay
// byte-identical to those persisted before mechanisms existed.
func persistedMechanism(m mechanism.Mechanism) string {
	if m.Name() == mechanism.Default {
		return ""
	}
	return m.Name()
}

// DefaultSweepGrid is the grid of a sweep request that gives none.
const DefaultSweepGrid = 64

// validateSweep resolves and validates a sweep request shared by /v1/sweep
// and sweep jobs: the grid (0 = DefaultSweepGrid) and the ring agent
// (validateAgent).
func (s *Server) validateSweep(w http.ResponseWriter, r *http.Request, wg *WireGraph, v, grid int, mech string) (*cacheEntry, mechanism.Mechanism, int, bool) {
	if grid == 0 {
		grid = DefaultSweepGrid
	}
	if grid < 0 || grid > 4096 {
		WriteError(w, http.StatusBadRequest, CodeBadGrid, "grid outside [1, 4096]")
		return nil, nil, 0, false
	}
	entry, m, ok := s.validateAgent(w, r, wg, v, mech, "sweep")
	return entry, m, grid, ok
}

// validateAgent resolves the mechanism and cache entry of a request about
// agent v of a ring — /v1/ratio, /v1/sweep and sweep jobs — answering the
// 4xx itself; endpoint names the request in the not-ring message.
func (s *Server) validateAgent(w http.ResponseWriter, r *http.Request, wg *WireGraph, v int, mech, endpoint string) (*cacheEntry, mechanism.Mechanism, bool) {
	m, ok := resolveWireMechanism(w, mech)
	if !ok {
		return nil, nil, false
	}
	entry, ok := s.entryForMech(w, r, wg, m)
	if !ok {
		return nil, nil, false
	}
	if !entry.g.IsRing() {
		WriteError(w, http.StatusBadRequest, CodeNotRing, endpoint+" requires a ring graph")
		return nil, nil, false
	}
	if v < 0 || v >= entry.g.N() {
		WriteError(w, http.StatusBadRequest, CodeBadAgent, fmt.Sprintf("agent %d out of range [0, %d)", v, entry.g.N()))
		return nil, nil, false
	}
	return entry, m, true
}

// submitSweep resolves a kind "sweep" submission. Its content address is
// the mechanism-scoped instance key (mechKey) plus the sweep parameters, so
// sweeps of one graph under different mechanisms are distinct jobs while bd
// submissions keep their pre-registry addresses.
func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (any, string, int, bool) {
	entry, m, grid, ok := s.validateSweep(w, r, &req.Graph, req.V, req.Grid, req.Mechanism)
	if !ok {
		return nil, "", 0, false
	}
	spec := sweepJobSpec{Graph: req.Graph, V: req.V, Grid: grid, Mechanism: persistedMechanism(m)}
	return spec, fmt.Sprintf("%s|v=%d|grid=%d|sweep", entry.key, req.V, grid), grid + 1, true
}

// sweepJob runs a persisted sweep spec on the instance's cache entry.
func (s *Server) sweepJob(ctx context.Context, spec *sweepJobSpec, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	m, err := mechanism.Get(spec.Mechanism)
	if err != nil {
		return nil, fmt.Errorf("job spec mechanism: %w", err)
	}
	g, err := spec.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("job spec graph: %w", err)
	}
	entry, hit := s.cache.entryFor(mechKey(g, m), g)
	s.metrics.cacheLookup("/v1/jobs#run", hit)
	res, err := s.runSweep(ctx, entry, m, spec.V, spec.Grid, start, prefix, ckpt)
	if err != nil {
		return nil, err
	}
	if res.Partial {
		return nil, ctx.Err()
	}
	return wireSweep(res), nil
}

// Submission caps of enumerate jobs, tighter than the enum package's own
// sanity bounds: a durable job is still served by the shared worker pool,
// so one submission must not demand days of certification work.
const (
	maxEnumN      = 8
	maxEnumLevels = 4
)

// submitEnum resolves a kind "enumerate" submission. The lattice is walked
// once here — cheap at the allowed bounds — to resolve defaults, reject
// explosive requests, and pin the total instance count into the persisted
// spec. Eps only tunes frontier reporting, not the certified work, yet it
// changes the final Summary — so it is part of the address too.
func (s *Server) submitEnum(w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (any, string, int, bool) {
	var er EnumJobRequest
	if req.Enum != nil {
		er = *req.Enum
	}
	eps := numeric.New(1, 2)
	if er.Eps != "" {
		var err error
		if eps, err = DecodeRat(er.Eps); err != nil || eps.Sign() <= 0 {
			WriteError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("enum.eps %q is not a positive rational", er.Eps))
			return nil, "", 0, false
		}
	}
	if er.Grid < 0 || er.Grid > 4096 {
		WriteError(w, http.StatusBadRequest, CodeBadGrid, "enum.grid outside [0, 4096]")
		return nil, "", 0, false
	}
	opts := enum.Options{MinN: er.MinN, MaxN: er.MaxN, Levels: er.Levels, Grid: er.Grid, Eps: eps}
	specs, err := enum.Enumerate(opts)
	if err != nil {
		WriteErrorDetail(w, http.StatusBadRequest, CodeBadBody, "invalid enumeration bounds", err.Error())
		return nil, "", 0, false
	}
	opts = opts.Resolved()
	if opts.MaxN > maxEnumN || opts.Levels > maxEnumLevels {
		WriteError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("enumeration jobs are limited to max_n ≤ %d and levels ≤ %d", maxEnumN, maxEnumLevels))
		return nil, "", 0, false
	}
	spec := enumJobSpec{MinN: opts.MinN, MaxN: opts.MaxN, Levels: opts.Levels, Grid: opts.Grid, Eps: EncodeRat(eps), Total: len(specs)}
	key := fmt.Sprintf("enum|n=%d-%d|levels=%d|grid=%d|eps=%s|enumerate", spec.MinN, spec.MaxN, spec.Levels, spec.Grid, spec.Eps)
	return spec, key, spec.Total, true
}

// enumCodec checkpoints an enumerate job's outcomes in the sweep Point
// shape: W1 carries the instance key ("r5:3,1,2,1,5"), U the certified
// ratio — or, when the instance failed certification, its error prefixed
// with "!" (keys and canonical ratios never start with '!', so the
// encoding is unambiguous).
var enumCodec = pointCodec[enum.Outcome]{
	enc: func(_ int, out enum.Outcome) (jobs.Point, error) {
		u := out.Ratio
		if out.Err != "" {
			u = "!" + out.Err
		}
		return jobs.Point{W1: out.Key, U: u}, nil
	},
	dec: func(p jobs.Point) (enum.Outcome, error) {
		out := enum.Outcome{Key: p.W1}
		if strings.HasPrefix(p.U, "!") {
			out.Err = p.U[1:]
		} else {
			out.Ratio = p.U
		}
		return out, nil
	},
}

// enumJob certifies the pinned instance list of an enumerate spec (solve →
// build certificate → solver-free cert.Check per instance) and returns the
// enum.Summary over all outcomes. Per-instance certification failures are
// recorded in the summary, not turned into job failures — the whole point
// of the job is to find them.
func (s *Server) enumJob(ctx context.Context, spec *enumJobSpec, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	eps, err := DecodeRat(spec.Eps)
	if err != nil {
		return nil, fmt.Errorf("corrupt job spec eps: %w", err)
	}
	sc, err := enum.NewScan(enum.Options{MinN: spec.MinN, MaxN: spec.MaxN, Levels: spec.Levels, Grid: spec.Grid, Eps: eps})
	if err != nil {
		return nil, fmt.Errorf("job spec bounds: %w", err)
	}
	if sc.Len != spec.Total {
		return nil, fmt.Errorf("enumeration drifted: spec pinned %d instances, lattice walk produced %d", spec.Total, sc.Len)
	}
	return runFold(ctx, sc, enumCodec, start, prefix, ckpt, func(r *scan.Result[enum.Outcome]) (*enum.Summary, error) {
		return enum.Summarize(r.Points, eps)
	})
}

// handleJobGet is GET /v1/jobs/{id}: full job state including the
// checkpointed partial points and, once done, the final result.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobStore.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	writeResult(w, r, wireJob(rec, true))
}

// handleJobList is GET /v1/jobs: jobs in submission order, paginated by an
// opaque cursor (the last job's sequence number) and optionally filtered by
// state and kind.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var opts jobs.ListOptions
	if c := q.Get("cursor"); c != "" {
		cur, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadBody, "cursor must be an unsigned integer")
			return
		}
		opts.AfterSeq = cur
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, CodeBadBody, "limit must be a positive integer")
			return
		}
		opts.Limit = n
	}
	if st := q.Get("state"); st != "" {
		state := jobs.State(st)
		switch state {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			opts.State = state
		default:
			WriteError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("unknown state %q", st))
			return
		}
	}
	if k := q.Get("kind"); k != "" {
		if jobKindOf(k) == nil {
			WriteError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("unknown kind %q", k))
			return
		}
		opts.Kind = k
	}
	recs, next := s.jobStore.List(opts)
	resp := JobListResponse{Jobs: make([]WireJob, len(recs)), NextCursor: next}
	for i, rec := range recs {
		resp.Jobs[i] = wireJob(rec, false)
	}
	writeResult(w, r, resp)
}

// handleJobCancel is DELETE /v1/jobs/{id}: a queued job cancels
// immediately; a running one has its context canceled and transitions once
// the worker unwinds (poll GET until state settles).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.jobSched.Cancel(r.Context(), r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	case errors.Is(err, jobs.ErrTerminal):
		WriteError(w, http.StatusConflict, CodeJobTerminal, "job already reached a terminal state")
		return
	case err != nil:
		writeComputeError(w, r, err)
		return
	}
	writeResult(w, r, wireJob(rec, false))
}

// wireJob renders a job record for the API. detail additionally includes
// the checkpointed points (the list view stays light).
func wireJob(rec *jobs.Record, detail bool) WireJob {
	j := WireJob{
		ID:         rec.ID,
		Kind:       rec.Kind,
		State:      string(rec.State),
		Attempt:    rec.Attempt,
		Priority:   rec.Priority,
		Error:      rec.Error,
		NextIndex:  rec.NextIndex,
		Result:     json.RawMessage(rec.Result),
		CreatedAt:  rec.CreatedUnixNano,
		StartedAt:  rec.StartedUnixNano,
		FinishedAt: rec.FinishedUnixNano,
	}
	if kind := jobKindOf(rec.Kind); kind != nil {
		j.TotalPoints = kind.total(rec.Spec)
	}
	if detail {
		j.Points = make([]WireSweepPoint, len(rec.Points))
		for i, p := range rec.Points {
			j.Points[i] = WireSweepPoint{W1: p.W1, U: p.U}
		}
	}
	return j
}

// runJob executes one durable job through its kind's runner, traced as a
// "jobs.run" collector trace holding one "jobs.<kind>" span.
func (s *Server) runJob(ctx context.Context, rec *jobs.Record, ckpt jobs.CheckpointFunc) ([]byte, error) {
	kind := jobKindOf(rec.Kind)
	if kind == nil {
		return nil, fmt.Errorf("unknown job kind %q", rec.Kind)
	}
	if s.collector != nil {
		tr := s.collector.NewTrace("jobs.run")
		ctx = tr.Context(ctx)
		defer tr.Finish()
	}
	ctx, span := obs.Start(ctx, "jobs."+kind.name)
	defer span.End()
	if span != nil {
		span.SetAttr("job", rec.ID)
		if rec.NextIndex > 0 {
			span.SetAttr("resume_from", strconv.Itoa(rec.NextIndex))
		}
	}
	res, err := kind.run(s, ctx, rec, ckpt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// writeJobsMetrics renders the jobs subsystem series on /metrics. No-op
// when jobs are disabled, so the exposition only grows for servers that
// opted in with -data-dir.
func (s *Server) writeJobsMetrics(p obs.PromWriter) {
	if s.jobSched == nil {
		return
	}
	ss := s.jobStore.Stats()
	js := s.jobSched.Stats()
	p.Family("jobs_total", "counter", "Job state transitions, by state entered.")
	for _, st := range obs.SortedKeys(js.Transitions, cmp.Compare[jobs.State]) {
		p.Sample("jobs_total", js.Transitions[st], "state", string(st))
	}
	p.Scalar("jobs_queue_depth", "gauge", "Jobs waiting for a worker slot.", int64(js.QueueDepth))
	p.Scalar("jobs_running", "gauge", "Jobs currently executing.", int64(js.Running))
	p.Scalar("jobs_resident", "gauge", "Job records resident in the store.", int64(ss.Jobs))
	p.Scalar("jobs_deduped_total", "counter", "Submissions answered by an existing job.", js.Deduped)
	p.Scalar("jobs_recovered_total", "counter", "Jobs requeued by startup recovery.", js.Recovered)
	p.Family("job_age_seconds", "histogram", "Queued-to-terminal job age.")
	p.Histogram("job_age_seconds", &js.Age)
	p.Scalar("jobs_wal_bytes", "gauge", "Bytes in the current WAL segment.", ss.WALBytes)
	p.Scalar("jobs_wal_appends_total", "counter", "WAL frames appended.", ss.Appends)
	p.Scalar("jobs_wal_syncs_total", "counter", "Fsync'd WAL appends.", ss.Syncs)
	p.Scalar("jobs_compactions_total", "counter", "Snapshot compactions.", ss.Compactions)
}
