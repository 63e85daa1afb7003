package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/mechanism"
	"repro/internal/scan"
)

// Mechanism-aware plumbing: every compute endpoint that accepts a
// "mechanism" field resolves it here, and all derived state — cache
// entries, micro-batches, resume tokens, durable job dedup — is scoped by
// mechKey, so backends never share or mix results.

// resolveWireMechanism maps the wire mechanism name ("" = bd) to its
// backend, answering 400 unknown_mechanism on failure.
func resolveWireMechanism(w http.ResponseWriter, name string) (mechanism.Mechanism, bool) {
	m, err := mechanism.Get(name)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeUnknownMechanism, err.Error())
		return nil, false
	}
	return m, true
}

// mechKey scopes a canonical instance key by mechanism. The default backend
// keeps the bare CanonicalKey — preserving every pre-mechanism cache entry,
// resume token and job address bit for bit — while any other backend gets a
// ";m=<name>" suffix. The suffix rides along wherever the entry key goes
// (batch keys, resume tokens, job keys), which is exactly what makes those
// artifacts mechanism-scoped without any second bookkeeping channel.
func mechKey(g *graph.Graph, m mechanism.Mechanism) string {
	key := CanonicalKey(g)
	if m.Name() != mechanism.Default {
		key += ";m=" + m.Name()
	}
	return key
}

// PlacementKey derives the mechanism-scoped canonical instance key of a
// wire graph — the exact string the server uses for cache entries, batch
// joins, resume tokens, and job dedup addresses. Cluster routers hash it to
// pick a backend, so a given instance always lands where its cache and jobs
// already live. Name "" selects the default mechanism, mirroring the wire
// field.
func PlacementKey(wg *WireGraph, name string) (string, error) {
	g, err := wg.Build()
	if err != nil {
		return "", err
	}
	m, err := mechanism.Get(name)
	if err != nil {
		return "", err
	}
	return mechKey(g, m), nil
}

// entryForMech is entryForWire with a mechanism-scoped cache key.
func (s *Server) entryForMech(w http.ResponseWriter, r *http.Request, wg *WireGraph, m mechanism.Mechanism) (*cacheEntry, bool) {
	return s.entryForKeyed(w, r, wg, func(g *graph.Graph) string { return mechKey(g, m) })
}

// MechanismsResponse is the body of GET /v1/mechanisms: every registered
// backend in sorted name order (byte-stable across processes), with its
// capability flags. Any listed name is a valid "mechanism" request field.
type MechanismsResponse struct {
	Default    string           `json:"default"`
	Mechanisms []mechanism.Info `json:"mechanisms"`
}

// handleMechanisms is GET /v1/mechanisms, the discovery endpoint of the
// pluggable-backend layer.
func (s *Server) handleMechanisms(w http.ResponseWriter, r *http.Request) {
	writeResult(w, r, MechanismsResponse{Default: mechanism.Default, Mechanisms: mechanism.Infos()})
}

// Tournament limits: one request fans out |instances| × |mechanisms| full
// sweeps, so both axes are capped tighter than the single-sweep endpoints.
const (
	maxTournamentInstances = 32
	maxTournamentGrid      = 1024
)

// TournamentWireInstance is one tournament arena: a ring graph and the
// attacker vertex whose Sybil split curve is swept under every mechanism.
type TournamentWireInstance struct {
	Graph WireGraph `json:"graph"`
	V     int       `json:"v"`
}

// TournamentRequest is the body of POST /v1/tournament: evaluate every
// selected mechanism (empty = all registered) on every instance under the
// identical attack grid (0 = default 64).
type TournamentRequest struct {
	Instances  []TournamentWireInstance `json:"instances"`
	Mechanisms []string                 `json:"mechanisms,omitempty"`
	Grid       int                      `json:"grid,omitempty"`
}

// WireTournamentCell is one (instance, mechanism) evaluation.
type WireTournamentCell struct {
	Mechanism  string `json:"mechanism"`
	Efficiency string `json:"efficiency"`
	Fairness   string `json:"fairness"`
	Honest     string `json:"honest"`
	BestW1     string `json:"best_w1"`
	BestU      string `json:"best_u"`
	Ratio      string `json:"ratio"`
}

// WireMechanismSummary aggregates one mechanism's column over all instances.
type WireMechanismSummary struct {
	Mechanism       string `json:"mechanism"`
	Instances       int    `json:"instances"`
	MaxRatio        string `json:"max_ratio"`
	MeanRatio       string `json:"mean_ratio"`
	MinFairness     string `json:"min_fairness"`
	TotalEfficiency string `json:"total_efficiency"`
}

// TournamentResponse is the body of a /v1/tournament answer (and the final
// Result of a durable tournament job): Cells[i][j] is instance i under
// Mechanisms[j] (sorted), so the layout is deterministic and byte-stable.
type TournamentResponse struct {
	Mechanisms []string               `json:"mechanisms"`
	Grid       int                    `json:"grid"`
	Cells      [][]WireTournamentCell `json:"cells"`
	Summary    []WireMechanismSummary `json:"summary"`
}

func wireCell(c mechanism.Cell) WireTournamentCell {
	return WireTournamentCell{
		Mechanism:  c.Mechanism,
		Efficiency: EncodeRat(c.Efficiency),
		Fairness:   EncodeRat(c.Fairness),
		Honest:     EncodeRat(c.Honest),
		BestW1:     EncodeRat(c.BestW1),
		BestU:      EncodeRat(c.BestU),
		Ratio:      EncodeRat(c.Ratio),
	}
}

func wireTournament(res *mechanism.TournamentResult) *TournamentResponse {
	out := &TournamentResponse{
		Mechanisms: res.Mechanisms,
		Grid:       res.Grid,
		Cells:      make([][]WireTournamentCell, len(res.Cells)),
		Summary:    make([]WireMechanismSummary, len(res.Summary)),
	}
	for i, row := range res.Cells {
		out.Cells[i] = make([]WireTournamentCell, len(row))
		for j, c := range row {
			out.Cells[i][j] = wireCell(c)
		}
	}
	for j, s := range res.Summary {
		out.Summary[j] = WireMechanismSummary{
			Mechanism:       s.Mechanism,
			Instances:       s.Instances,
			MaxRatio:        EncodeRat(s.MaxRatio),
			MeanRatio:       EncodeRat(s.MeanRatio),
			MinFairness:     EncodeRat(s.MinFairness),
			TotalEfficiency: EncodeRat(s.TotalEfficiency),
		}
	}
	return out
}

// validateTournament resolves and validates a tournament request shared by
// the inline endpoint and job submission — mechanism set (sorted, deduped),
// grid bounds, and per-instance ring/agent checks — into the persisted
// spec and its content address: the canonical instance keys with their
// attacker vertices, the grid, and the resolved mechanism set, the
// complete determinants of the result.
func (s *Server) validateTournament(w http.ResponseWriter, req *TournamentRequest) (tournamentJobSpec, string, bool) {
	names, err := mechanism.ResolveSet(req.Mechanisms)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeUnknownMechanism, err.Error())
		return tournamentJobSpec{}, "", false
	}
	grid := req.Grid
	if grid == 0 {
		grid = 64
	}
	if grid < 0 || grid > maxTournamentGrid {
		WriteError(w, http.StatusBadRequest, CodeBadGrid, fmt.Sprintf("grid outside [1, %d]", maxTournamentGrid))
		return tournamentJobSpec{}, "", false
	}
	if len(req.Instances) == 0 || len(req.Instances) > maxTournamentInstances {
		WriteError(w, http.StatusBadRequest, CodeBadGraph,
			fmt.Sprintf("tournament needs between 1 and %d instances, got %d", maxTournamentInstances, len(req.Instances)))
		return tournamentJobSpec{}, "", false
	}
	var key strings.Builder
	fmt.Fprintf(&key, "tournament|grid=%d|m=%s|i=", grid, strings.Join(names, ","))
	for i, inst := range req.Instances {
		g, err := inst.Graph.Build()
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadGraph, fmt.Sprintf("instances[%d]: %v", i, err))
			return tournamentJobSpec{}, "", false
		}
		if !g.IsRing() {
			WriteError(w, http.StatusBadRequest, CodeNotRing, fmt.Sprintf("instances[%d]: tournament requires ring graphs", i))
			return tournamentJobSpec{}, "", false
		}
		if inst.V < 0 || inst.V >= g.N() {
			WriteError(w, http.StatusBadRequest, CodeBadAgent,
				fmt.Sprintf("instances[%d]: agent %d out of range [0, %d)", i, inst.V, g.N()))
			return tournamentJobSpec{}, "", false
		}
		if i > 0 {
			key.WriteByte(';')
		}
		fmt.Fprintf(&key, "%s@%d", CanonicalKey(g), inst.V)
	}
	spec := tournamentJobSpec{
		Instances:  append([]TournamentWireInstance(nil), req.Instances...),
		Mechanisms: names,
		Grid:       grid,
		Total:      len(req.Instances) * len(names),
	}
	return spec, key.String(), true
}

// handleTournament is POST /v1/tournament: the inline head-to-head run.
// For long grids or many instances, submit a kind "tournament" job instead
// — same validation, same final body, durable across restarts.
func (s *Server) handleTournament(w http.ResponseWriter, r *http.Request) {
	var req TournamentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, _, ok := s.validateTournament(w, &req)
	if !ok {
		return
	}
	s.serveRun(w, r, func(ctx context.Context) (any, error) { return s.runTournament(ctx, &spec, 0, nil, nil) })
}

// tournamentJobSpec is the persisted specification of a tournament job: the
// validated instances in canonical wire form, the resolved (sorted) set of
// mechanisms, the grid, and the pinned cell count. Cells are addressed
// row-major — cell k is instance k/len(M) under mechanism k%len(M) — so
// progress and resume never depend on re-deriving the layout.
type tournamentJobSpec struct {
	Instances  []TournamentWireInstance `json:"instances"`
	Mechanisms []string                 `json:"mechanisms"`
	Grid       int                      `json:"grid"`
	Total      int                      `json:"total"`
}

// submitTournament resolves a kind "tournament" submission.
func (s *Server) submitTournament(w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (any, string, int, bool) {
	var tr TournamentRequest
	if req.Tournament != nil {
		tr = *req.Tournament
	}
	spec, key, ok := s.validateTournament(w, &tr)
	return spec, key, spec.Total, ok
}

// cellCodec checkpoints a tournament's cells in the sweep Point shape: W1
// carries the row-major cell index in decimal, U the WireTournamentCell
// JSON. Exact rationals serialize canonically inside the cell, so a
// replayed checkpoint re-enters the final answer bit for bit.
var cellCodec = pointCodec[mechanism.Cell]{
	enc: func(idx int, c mechanism.Cell) (jobs.Point, error) {
		raw, err := json.Marshal(wireCell(c))
		return jobs.Point{W1: strconv.Itoa(idx), U: string(raw)}, err
	},
	dec: func(p jobs.Point) (mechanism.Cell, error) {
		var wc WireTournamentCell
		if err := json.Unmarshal([]byte(p.U), &wc); err != nil {
			return mechanism.Cell{}, fmt.Errorf("cell %s: %w", p.W1, err)
		}
		rs, err := decodeRats("cell "+p.W1, []string{wc.Efficiency, wc.Fairness, wc.Honest, wc.BestW1, wc.BestU, wc.Ratio})
		if err != nil {
			return mechanism.Cell{}, err
		}
		c := mechanism.Cell{Mechanism: wc.Mechanism, Efficiency: rs[0], Fairness: rs[1], Honest: rs[2], BestW1: rs[3], BestU: rs[4], Ratio: rs[5]}
		return c, nil
	},
}

// runTournament is the one run of a tournament, shared by the inline
// endpoint and the durable job runner: cells run one after another in the
// pinned row-major order (each cell's sweep in parallel), a job resuming at
// the first unevaluated cell, and the summaries are computed from the full
// cell matrix — so the result is bit-identical whether or not the job was
// ever interrupted.
func (s *Server) runTournament(ctx context.Context, spec *tournamentJobSpec, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	insts := make([]mechanism.TournamentInstance, len(spec.Instances))
	for i, inst := range spec.Instances {
		g, err := inst.Graph.Build()
		if err != nil {
			return nil, fmt.Errorf("job spec instance %d: %w", i, err)
		}
		insts[i] = mechanism.TournamentInstance{G: g, V: inst.V}
	}
	t, err := mechanism.NewTournament(insts, mechanism.TournamentOptions{Mechanisms: spec.Mechanisms, Grid: spec.Grid})
	if err != nil {
		return nil, err
	}
	return runFold(ctx, t.Scan, cellCodec, start, prefix, ckpt, func(r *scan.Result[mechanism.Cell]) (*TournamentResponse, error) {
		return wireTournament(t.Result(r.Points)), nil
	})
}
