package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/mechanism"
	"repro/internal/scenario"
)

// The scenario layer: POST /v1/scenario runs one strategic-manipulation
// scan (internal/scenario) inline, and kinds "ksybil"/"coalition"/"topology"
// of POST /v1/jobs run the same scans as durable, checkpointed jobs. Both
// paths share one validator and one execution core, so a job's final Result
// is byte-identical to the inline response of the same request — whether or
// not the job was ever interrupted.

// Scenario limits. Scans fan out allocations per point, so every axis is
// capped at submission; violations answer 400 scenario_limit.
const (
	// minScenarioK/maxScenarioK bound the identity count of a ksybil scan.
	minScenarioK = 2
	maxScenarioK = 8
	// maxScenarioPoints caps the total point count of any scenario scan
	// (grid points for ksybil/coalition, instances for topology).
	maxScenarioPoints = 4096
	// maxCoalitionMembers bounds the coalition size; the grid is
	// Grid^members, so this also bounds the exponent.
	maxCoalitionMembers = 4
	// maxTopologyN / maxTopologyCount / maxTopologyGrid bound a topology
	// scan: each instance costs n·(grid−1) full allocations.
	maxTopologyN     = 64
	maxTopologyCount = 64
	maxTopologyGrid  = 64
)

// Error codes of the scenario API (see the main catalogue in wire.go).
const (
	// CodeScenarioLimit: a scenario parameter exceeds the server's scan
	// limits (400) — k outside [2, 8], a grid whose point count exceeds
	// 4096, too many coalition members, or topology bounds out of range.
	CodeScenarioLimit = "scenario_limit"
	// CodeUnknownTopology: a topology family name is not registered (400).
	// The valid names are those of scenario.Families.
	CodeUnknownTopology = "unknown_topology"
)

// ScenarioRequest is the body of POST /v1/scenario (and, nested under
// "scenario", of a scenario job submission). Kind selects the scan:
//
//   - "ksybil": agent V of ring Graph splits into K identities over the
//     composition grid Σ c_j = Grid (Grid 0 = default 64);
//   - "coalition": the Members of Graph jointly misreport over the product
//     grid of positive reports w_j·c_j/Grid, c_j ∈ {1..Grid} (default 8);
//   - "topology": generated graph Families (empty = all registered) are
//     scanned for single-agent misreport deviations — Count instances per
//     family (default 4) of N vertices (default 8) with Dist-distributed
//     weights ("uniform", "skewed", "powers", "unit"; "" = uniform), seeded
//     by Seed, each vertex trying reports w_v·c/Grid for c ∈ {1..Grid−1}.
//
// Mechanism selects the allocation backend ("" = default "bd"). Cert,
// topology-only, additionally requests a BD ratio certificate of the scan's
// best ring point (400 cert_limit for other kinds or non-certifiable
// mechanisms).
type ScenarioRequest struct {
	Kind      string    `json:"kind"`
	Mechanism string    `json:"mechanism,omitempty"`
	Graph     WireGraph `json:"graph,omitempty"`
	V         int       `json:"v,omitempty"`
	K         int       `json:"k,omitempty"`
	Grid      int       `json:"grid,omitempty"`
	Members   []int     `json:"members,omitempty"`
	Families  []string  `json:"families,omitempty"`
	Count     int       `json:"count,omitempty"`
	N         int       `json:"n,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Dist      string    `json:"dist,omitempty"`
	Cert      bool      `json:"cert,omitempty"`
}

// WireScenarioKSybilPoint is one evaluated k-way split: identity j holds
// w_v·Comp[j]/grid and U is the combined utility of all identities.
type WireScenarioKSybilPoint struct {
	Comp []int  `json:"comp"`
	U    string `json:"u"`
}

// ScenarioKSybilResult is the kind "ksybil" payload of a scenario answer.
type ScenarioKSybilResult struct {
	K         int                       `json:"k"`
	Grid      int                       `json:"grid"`
	Points    []WireScenarioKSybilPoint `json:"points"`
	BestIndex int                       `json:"best_index"`
	BestComp  []int                     `json:"best_comp"`
	BestU     string                    `json:"best_u"`
	Honest    string                    `json:"honest"`
	Ratio     string                    `json:"ratio"`
	Total     int                       `json:"total"`
}

// WireScenarioCoalitionPoint is one evaluated joint misreport: member j
// reported w_j·Digits[j]/grid and earned Members[j]; Joint is the sum.
type WireScenarioCoalitionPoint struct {
	Digits  []int    `json:"digits"`
	Members []string `json:"members"`
	Joint   string   `json:"joint"`
}

// ScenarioCoalitionResult is the kind "coalition" payload of a scenario
// answer. Honest/BestMember/Gains/MemberRatios are per-member vectors in
// Members order; Gains may be negative (a sacrificial member).
type ScenarioCoalitionResult struct {
	Grid         int                          `json:"grid"`
	Members      []int                        `json:"members"`
	Points       []WireScenarioCoalitionPoint `json:"points"`
	BestIndex    int                          `json:"best_index"`
	BestDigits   []int                        `json:"best_digits"`
	BestJoint    string                       `json:"best_joint"`
	HonestJoint  string                       `json:"honest_joint"`
	JointRatio   string                       `json:"joint_ratio"`
	Honest       []string                     `json:"honest"`
	BestMember   []string                     `json:"best_member"`
	Gains        []string                     `json:"gains"`
	MemberRatios []string                     `json:"member_ratios"`
	Total        int                          `json:"total"`
}

// WireTopologyOutcome is one scanned instance: the worst single-agent
// misreport deviation found over all vertices and grid reports. When
// Unbounded is set, a vertex with zero honest utility gained Best > 0 and
// Ratio is meaningless ("0").
type WireTopologyOutcome struct {
	Family     string `json:"family"`
	Index      int    `json:"index"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	WorstV     int    `json:"worst_v"`
	WorstDigit int    `json:"worst_digit"`
	Honest     string `json:"honest"`
	Best       string `json:"best"`
	Ratio      string `json:"ratio"`
	Unbounded  bool   `json:"unbounded,omitempty"`
}

// WireFamilySummary aggregates one family's outcomes: the worst instance
// (regenerable from its index) and its deviation ratio — or, when
// Unbounded, its raw deviation utility.
type WireFamilySummary struct {
	Family     string `json:"family"`
	Count      int    `json:"count"`
	WorstIndex int    `json:"worst_index"`
	WorstRatio string `json:"worst_ratio"`
	Unbounded  bool   `json:"unbounded,omitempty"`
}

// ScenarioTopologyResult is the kind "topology" payload of a scenario
// answer. Certificate, present only when the request opted in with cert, is
// the BD ratio certificate of the ring family's worst instance at its worst
// vertex, self-checked by the server (cert.Check) before attachment.
type ScenarioTopologyResult struct {
	Families    []string              `json:"families"`
	Count       int                   `json:"count"`
	N           int                   `json:"n"`
	Grid        int                   `json:"grid"`
	Seed        int64                 `json:"seed"`
	Dist        string                `json:"dist"`
	Outcomes    []WireTopologyOutcome `json:"outcomes"`
	Summaries   []WireFamilySummary   `json:"summaries"`
	Total       int                   `json:"total"`
	Certificate *cert.RatioCert       `json:"certificate,omitempty"`
}

// ScenarioResponse is the body of a /v1/scenario answer (and the final
// Result of a durable scenario job): exactly one of the kind payloads is
// set, matching Kind. Mechanism is the resolved backend name.
type ScenarioResponse struct {
	Kind      string                   `json:"kind"`
	Mechanism string                   `json:"mechanism"`
	KSybil    *ScenarioKSybilResult    `json:"ksybil,omitempty"`
	Coalition *ScenarioCoalitionResult `json:"coalition,omitempty"`
	Topology  *ScenarioTopologyResult  `json:"topology,omitempty"`
}

// scenarioJobSpec is the persisted specification of a scenario job: the
// validated request with every default resolved and the point count pinned,
// so progress reporting and resume never depend on re-deriving the layout.
// Mechanism is empty for the default backend, mirroring sweepJobSpec.
type scenarioJobSpec struct {
	Kind      string     `json:"kind"`
	Mechanism string     `json:"mechanism,omitempty"`
	Graph     *WireGraph `json:"graph,omitempty"`
	V         int        `json:"v,omitempty"`
	K         int        `json:"k,omitempty"`
	Grid      int        `json:"grid"`
	Members   []int      `json:"members,omitempty"`
	Families  []string   `json:"families,omitempty"`
	Count     int        `json:"count,omitempty"`
	N         int        `json:"n,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
	Dist      string     `json:"dist,omitempty"`
	Cert      bool       `json:"cert,omitempty"`
	Total     int        `json:"total"`
}

// topologyOptions rebuilds the engine options of a topology spec. The
// mechanism may be nil when only instance regeneration is needed.
func (spec *scenarioJobSpec) topologyOptions(m mechanism.Mechanism) (scenario.TopologyOptions, error) {
	dist, err := graph.ParseWeightDist(spec.Dist)
	if err != nil {
		return scenario.TopologyOptions{}, err
	}
	return scenario.TopologyOptions{
		Families:  spec.Families,
		Count:     spec.Count,
		N:         spec.N,
		Grid:      spec.Grid,
		Seed:      spec.Seed,
		Dist:      dist,
		Mechanism: m,
	}, nil
}

// validateScenario resolves and validates a scenario request shared by the
// inline endpoint and job submission: kind, mechanism, graph/agent bounds,
// and the scan limits. The returned spec has every default resolved and
// Total pinned; g is the built instance graph (nil for topology scans,
// which generate their own).
func (s *Server) validateScenario(w http.ResponseWriter, req *ScenarioRequest) (scenarioJobSpec, *graph.Graph, mechanism.Mechanism, bool) {
	reject := func(code, msg string) (scenarioJobSpec, *graph.Graph, mechanism.Mechanism, bool) {
		writeError(w, http.StatusBadRequest, code, msg)
		return scenarioJobSpec{}, nil, nil, false
	}
	m, ok := resolveWireMechanism(w, req.Mechanism)
	if !ok {
		return scenarioJobSpec{}, nil, nil, false
	}
	spec := scenarioJobSpec{Kind: req.Kind, Mechanism: persistedMechanism(m)}
	if req.Cert {
		if req.Kind != "topology" {
			return reject(CodeCertLimit, "scenario certificates are only available for topology scans (the best ring point)")
		}
		if !mechCertifiable(m) {
			return reject(CodeCertLimit, fmt.Sprintf("mechanism %q cannot build certificates", m.Name()))
		}
		spec.Cert = true
	}
	var g *graph.Graph
	if req.Kind == "ksybil" || req.Kind == "coalition" {
		var err error
		if g, err = req.Graph.Build(); err != nil {
			return reject(CodeBadGraph, err.Error())
		}
	}
	switch req.Kind {
	case "ksybil":
		if !g.IsRing() {
			return reject(CodeNotRing, "ksybil scenarios require a ring graph")
		}
		if req.V < 0 || req.V >= g.N() {
			return reject(CodeBadAgent, fmt.Sprintf("agent %d out of range [0, %d)", req.V, g.N()))
		}
		k := req.K
		if k == 0 {
			k = 2
		}
		if k < minScenarioK || k > maxScenarioK {
			return reject(CodeScenarioLimit, fmt.Sprintf("k outside [%d, %d]", minScenarioK, maxScenarioK))
		}
		grid := req.Grid
		if grid == 0 {
			grid = 64
		}
		if grid < 1 || grid > 4096 {
			return reject(CodeBadGrid, "grid outside [1, 4096]")
		}
		total, err := scenario.KSybilTotal(grid, k, maxScenarioPoints)
		if err != nil {
			return reject(CodeBadGrid, err.Error())
		}
		if total > maxScenarioPoints {
			return reject(CodeScenarioLimit, fmt.Sprintf("k-identity grid exceeds %d points", maxScenarioPoints))
		}
		gCopy := req.Graph
		spec.Graph, spec.V, spec.K, spec.Grid, spec.Total = &gCopy, req.V, k, grid, total
		return spec, g, m, true
	case "coalition":
		if len(req.Members) < 2 || len(req.Members) > maxCoalitionMembers {
			return reject(CodeScenarioLimit, fmt.Sprintf("coalition needs between 2 and %d members, got %d", maxCoalitionMembers, len(req.Members)))
		}
		seen := make(map[int]bool, len(req.Members))
		for _, v := range req.Members {
			if v < 0 || v >= g.N() {
				return reject(CodeBadAgent, fmt.Sprintf("member %d out of range [0, %d)", v, g.N()))
			}
			if seen[v] {
				return reject(CodeBadAgent, fmt.Sprintf("member %d listed twice", v))
			}
			seen[v] = true
		}
		grid := req.Grid
		if grid == 0 {
			grid = 8
		}
		if grid < 1 {
			return reject(CodeBadGrid, "grid must be positive")
		}
		total, err := scenario.CoalitionTotal(grid, len(req.Members), maxScenarioPoints)
		if err != nil {
			return reject(CodeScenarioLimit, err.Error())
		}
		gCopy := req.Graph
		spec.Graph, spec.Members, spec.Grid, spec.Total = &gCopy, req.Members, grid, total
		return spec, g, m, true
	case "topology":
		fams := req.Families
		if len(fams) == 0 {
			fams = scenario.Families()
		}
		seen := make(map[string]bool, len(fams))
		for _, f := range fams {
			if !scenario.ValidFamily(f) {
				return reject(CodeUnknownTopology, fmt.Sprintf("unknown topology family %q (want one of %s)", f, strings.Join(scenario.Families(), ", ")))
			}
			if seen[f] {
				return reject(CodeBadBody, fmt.Sprintf("topology family %q listed twice", f))
			}
			seen[f] = true
		}
		if spec.Cert && !seen[scenario.FamilyRing] {
			return reject(CodeCertLimit, "scenario certificates need the ring family in the scan")
		}
		count := req.Count
		if count == 0 {
			count = 4
		}
		if count < 1 || count > maxTopologyCount {
			return reject(CodeScenarioLimit, fmt.Sprintf("topology count outside [1, %d]", maxTopologyCount))
		}
		n := req.N
		if n == 0 {
			n = 8
		}
		if n < 5 || n > maxTopologyN {
			return reject(CodeScenarioLimit, fmt.Sprintf("topology n outside [5, %d]", maxTopologyN))
		}
		grid := req.Grid
		if grid == 0 {
			grid = 8
		}
		if grid < 2 || grid > maxTopologyGrid {
			return reject(CodeBadGrid, fmt.Sprintf("topology grid outside [2, %d]", maxTopologyGrid))
		}
		dist := req.Dist
		if dist == "" {
			dist = "uniform"
		}
		if _, err := graph.ParseWeightDist(dist); err != nil {
			return reject(CodeBadBody, err.Error())
		}
		total := scenario.TopologyTotal(len(fams), count)
		if total > maxScenarioPoints {
			return reject(CodeScenarioLimit, fmt.Sprintf("topology scan exceeds %d instances", maxScenarioPoints))
		}
		spec.Families, spec.Count, spec.N, spec.Grid = fams, count, n, grid
		spec.Seed, spec.Dist, spec.Total = req.Seed, dist, total
		return spec, nil, m, true
	case "":
		return reject(CodeBadBody, "missing scenario kind (want ksybil, coalition, or topology)")
	}
	return reject(CodeBadBody, fmt.Sprintf("unknown scenario kind %q (want ksybil, coalition, or topology)", req.Kind))
}

// scenarioJobKey is the content address of one scenario job: the
// mechanism-scoped instance key plus the scan parameters (for graph-bound
// kinds), or the full generator parameters (for topology scans).
func scenarioJobKey(spec *scenarioJobSpec, g *graph.Graph, m mechanism.Mechanism) string {
	switch spec.Kind {
	case "ksybil":
		return fmt.Sprintf("%s|v=%d|k=%d|grid=%d|ksybil", mechKey(g, m), spec.V, spec.K, spec.Grid)
	case "coalition":
		return fmt.Sprintf("%s|members=%s|grid=%d|coalition", mechKey(g, m), joinInts(spec.Members), spec.Grid)
	default: // topology
		key := fmt.Sprintf("f=%s|count=%d|n=%d|grid=%d|seed=%d|dist=%s|cert=%t",
			strings.Join(spec.Families, ","), spec.Count, spec.N, spec.Grid, spec.Seed, spec.Dist, spec.Cert)
		if m.Name() != mechanism.Default {
			key += ";m=" + m.Name()
		}
		return key + "|topology"
	}
}

// joinInts renders an int vector in the comma-joined checkpoint form.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// splitInts parses the comma-joined checkpoint form back to ints.
func splitInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("corrupt int vector %q: %w", s, err)
		}
		out[i] = n
	}
	return out, nil
}

// Scenario-job checkpoints reuse the sweep Point shape. For ksybil, W1
// carries the comma-joined composition and U the canonical utility; for
// coalition, W1 the digit vector and U a small JSON object with the joint
// and per-member utilities (so a resumed scan reconstructs the best point's
// attribution without re-evaluation); for topology, W1 the decimal global
// instance index and U the WireTopologyOutcome JSON.

var ksybilCodec = pointCodec[scenario.KSybilPoint]{
	enc: func(_ int, p scenario.KSybilPoint) (jobs.Point, error) {
		return jobs.Point{W1: joinInts(p.Comp), U: EncodeRat(p.U)}, nil
	},
	dec: func(p jobs.Point) (scenario.KSybilPoint, error) {
		comp, err := splitInts(p.W1)
		if err != nil {
			return scenario.KSybilPoint{}, err
		}
		u, err := DecodeRat(p.U)
		if err != nil {
			return scenario.KSybilPoint{}, fmt.Errorf("corrupt utility: %w", err)
		}
		return scenario.KSybilPoint{Comp: comp, U: u}, nil
	},
}

// wireCoalitionCkpt is the U payload of a coalition checkpoint point.
type wireCoalitionCkpt struct {
	Joint   string   `json:"joint"`
	Members []string `json:"members"`
}

var coalitionCodec = pointCodec[scenario.CoalitionPoint]{
	enc: func(_ int, p scenario.CoalitionPoint) (jobs.Point, error) {
		raw, err := json.Marshal(wireCoalitionCkpt{Joint: EncodeRat(p.Joint), Members: encodeRats(p.Members)})
		return jobs.Point{W1: joinInts(p.Digits), U: string(raw)}, err
	},
	dec: func(p jobs.Point) (scenario.CoalitionPoint, error) {
		digits, err := splitInts(p.W1)
		if err != nil {
			return scenario.CoalitionPoint{}, err
		}
		var ck wireCoalitionCkpt
		if err := json.Unmarshal([]byte(p.U), &ck); err != nil {
			return scenario.CoalitionPoint{}, fmt.Errorf("corrupt coalition point: %w", err)
		}
		joint, err := DecodeRat(ck.Joint)
		if err != nil {
			return scenario.CoalitionPoint{}, fmt.Errorf("corrupt joint utility: %w", err)
		}
		members, err := decodeRats("members", ck.Members)
		if err != nil {
			return scenario.CoalitionPoint{}, err
		}
		return scenario.CoalitionPoint{Digits: digits, Members: members, Joint: joint}, nil
	},
}

var topologyCodec = pointCodec[scenario.TopologyOutcome]{
	enc: func(i int, out scenario.TopologyOutcome) (jobs.Point, error) {
		raw, err := json.Marshal(wireTopologyOutcome(out))
		return jobs.Point{W1: strconv.Itoa(i), U: string(raw)}, err
	},
	dec: func(p jobs.Point) (scenario.TopologyOutcome, error) {
		var wo WireTopologyOutcome
		if err := json.Unmarshal([]byte(p.U), &wo); err != nil {
			return scenario.TopologyOutcome{}, fmt.Errorf("corrupt topology outcome %s: %w", p.W1, err)
		}
		rs, err := decodeRats("topology outcome "+p.W1, []string{wo.Honest, wo.Best, wo.Ratio})
		if err != nil {
			return scenario.TopologyOutcome{}, err
		}
		out := scenario.TopologyOutcome{
			Family: wo.Family, Index: wo.Index, N: wo.N, M: wo.M, WorstV: wo.WorstV, WorstDigit: wo.WorstDigit,
			Honest: rs[0], Best: rs[1], Ratio: rs[2], Unbounded: wo.Unbounded,
		}
		return out, nil
	},
}

func wireTopologyOutcome(out scenario.TopologyOutcome) WireTopologyOutcome {
	return WireTopologyOutcome{
		Family:     out.Family,
		Index:      out.Index,
		N:          out.N,
		M:          out.M,
		WorstV:     out.WorstV,
		WorstDigit: out.WorstDigit,
		Honest:     EncodeRat(out.Honest),
		Best:       EncodeRat(out.Best),
		Ratio:      EncodeRat(out.Ratio),
		Unbounded:  out.Unbounded,
	}
}

// certifyTopologyBest builds the BD ratio certificate of a topology scan's
// best ring point: the ring family's worst bounded instance is regenerated
// exactly (TopologyInstance), its worst vertex is optimized on the scan
// grid, and the certificate is self-checked before attachment.
func (s *Server) certifyTopologyBest(ctx context.Context, spec *scenarioJobSpec, outcomes []scenario.TopologyOutcome) (*cert.RatioCert, error) {
	var worst *scenario.TopologyOutcome
	for i := range outcomes {
		o := &outcomes[i]
		if o.Family != scenario.FamilyRing || o.Unbounded {
			continue
		}
		if worst == nil || worst.Ratio.Less(o.Ratio) {
			worst = o
		}
	}
	if worst == nil {
		return nil, fmt.Errorf("scan covered no certifiable ring instance")
	}
	opts, err := spec.topologyOptions(nil)
	if err != nil {
		return nil, err
	}
	g, _, err := scenario.TopologyInstance(opts, worst.Index)
	if err != nil {
		return nil, err
	}
	v := worst.WorstV
	if v < 0 {
		v = 0
	}
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		return nil, err
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: spec.Grid})
	if err != nil {
		return nil, err
	}
	rc, err := build.Ratio(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	if err := s.certify(rc); err != nil {
		return nil, err
	}
	return rc, nil
}

// scenarioGraph returns the graph of a graph-bound scenario submission.
func scenarioGraph(req *JobSubmitRequest) (*WireGraph, string) {
	if req.Scenario == nil {
		return nil, ""
	}
	return &req.Scenario.Graph, req.Scenario.Mechanism
}

// runScenario is the one run of every scenario kind, shared by the inline
// endpoint and the job runner: points run one after another, and the
// engine's own fold runs over the combined prefix+tail, so both paths
// produce byte-identical bodies.
func (s *Server) runScenario(ctx context.Context, spec *scenarioJobSpec, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	m, err := mechanism.Get(spec.Mechanism)
	if err != nil {
		return nil, fmt.Errorf("job spec mechanism: %w", err)
	}
	var g *graph.Graph
	if spec.Graph != nil {
		if g, err = spec.Graph.Build(); err != nil {
			return nil, fmt.Errorf("job spec graph: %w", err)
		}
	}
	resp := &ScenarioResponse{Kind: spec.Kind, Mechanism: m.Name()}
	switch spec.Kind {
	case "ksybil":
		// BD splits run on the cached core.Instance shared with the inline
		// sweep/ratio endpoints (memoized pair evaluations).
		sp, err := mechanism.NewSplitter(ctx, m, g, spec.V, spec.K, func(ctx context.Context) (*core.Instance, error) {
			entry, hit := s.cache.entryFor(mechKey(g, m), g)
			s.metrics.cacheLookup("/v1/scenario#run", hit)
			return entry.instance(ctx, spec.V)
		})
		if err != nil {
			return nil, err
		}
		ks, err := scenario.KSybilOf(sp, spec.Grid)
		if err != nil {
			return nil, err
		}
		res, err := runFold(ctx, ks.Scan, ksybilCodec, start, prefix, ckpt, ks.Result)
		if err != nil {
			return nil, err
		}
		resp.KSybil = &ScenarioKSybilResult{
			K: spec.K, Grid: spec.Grid, Total: spec.Total,
			Points:    make([]WireScenarioKSybilPoint, len(res.Points)),
			BestIndex: res.BestIndex, BestComp: res.BestComp, BestU: EncodeRat(res.BestU),
			Honest: EncodeRat(res.Honest), Ratio: EncodeRat(res.Ratio),
		}
		for i, p := range res.Points {
			resp.KSybil.Points[i] = WireScenarioKSybilPoint{Comp: p.Comp, U: EncodeRat(p.U)}
		}
	case "coalition":
		cs, err := scenario.NewCoalition(ctx, g, scenario.CoalitionOptions{Members: spec.Members, Grid: spec.Grid, Mechanism: m})
		if err != nil {
			return nil, err
		}
		res, err := runFold(ctx, cs.Scan, coalitionCodec, start, prefix, ckpt, cs.Result)
		if err != nil {
			return nil, err
		}
		out := &ScenarioCoalitionResult{
			Grid: spec.Grid, Members: spec.Members, Total: spec.Total,
			Points:    make([]WireScenarioCoalitionPoint, len(res.Points)),
			BestIndex: res.BestIndex, BestDigits: res.BestDigits, BestJoint: EncodeRat(res.BestJoint),
			HonestJoint: EncodeRat(res.HonestJoint), JointRatio: EncodeRat(res.JointRatio),
			Honest: encodeRats(res.Honest),
		}
		for i, p := range res.Points {
			out.Points[i] = WireScenarioCoalitionPoint{Digits: p.Digits, Members: encodeRats(p.Members), Joint: EncodeRat(p.Joint)}
		}
		out.BestMember, out.Gains, out.MemberRatios = encodeRats(res.BestMember), encodeRats(res.Gains), encodeRats(res.MemberRatios)
		resp.Coalition = out
	case "topology":
		topts, err := spec.topologyOptions(m)
		if err != nil {
			return nil, fmt.Errorf("job spec dist: %w", err)
		}
		ts, err := scenario.NewTopology(topts)
		if err != nil {
			return nil, err
		}
		res, err := runFold(ctx, ts.Scan, topologyCodec, start, prefix, ckpt, ts.Result)
		if err != nil {
			return nil, err
		}
		out := &ScenarioTopologyResult{
			Families: spec.Families, Count: spec.Count, N: spec.N,
			Grid: spec.Grid, Seed: spec.Seed, Dist: spec.Dist, Total: spec.Total,
			Outcomes: make([]WireTopologyOutcome, len(res.Outcomes)),
		}
		for i, o := range res.Outcomes {
			out.Outcomes[i] = wireTopologyOutcome(o)
		}
		for _, f := range res.Summaries {
			out.Summaries = append(out.Summaries, WireFamilySummary{
				Family: f.Family, Count: f.Count, WorstIndex: f.WorstIndex,
				WorstRatio: EncodeRat(f.WorstRatio), Unbounded: f.Unbounded,
			})
		}
		if spec.Cert {
			if out.Certificate, err = s.certifyTopologyBest(ctx, spec, res.Outcomes); err != nil {
				return nil, fmt.Errorf("scenario certificate: %w", err)
			}
		}
		resp.Topology = out
	default:
		return nil, fmt.Errorf("corrupt scenario spec: unknown kind %q", spec.Kind)
	}
	return resp, nil
}

// handleScenario is POST /v1/scenario: the inline strategic-manipulation
// scan. For long grids, submit a kind ksybil/coalition/topology job instead
// — same validation, same final body, durable across restarts.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, _, _, ok := s.validateScenario(w, &req)
	if !ok {
		return
	}
	s.serveRun(w, r, func(ctx context.Context) (any, error) { return s.runScenario(ctx, &spec, 0, nil, nil) })
}

// submitScenario resolves a kind ksybil/coalition/topology submission. The
// scenario parameters ride in the Scenario field of the job submission;
// its kind, when set, must agree with the job kind.
func (s *Server) submitScenario(w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (any, string, int, bool) {
	var sr ScenarioRequest
	if req.Scenario != nil {
		sr = *req.Scenario
	}
	if sr.Kind == "" {
		sr.Kind = req.Kind
	}
	if sr.Kind != req.Kind {
		writeError(w, http.StatusBadRequest, CodeBadBody,
			fmt.Sprintf("job kind %q conflicts with scenario kind %q", req.Kind, sr.Kind))
		return nil, "", 0, false
	}
	spec, g, m, ok := s.validateScenario(w, &sr)
	if !ok {
		return nil, "", 0, false
	}
	return spec, scenarioJobKey(&spec, g, m), spec.Total, true
}
