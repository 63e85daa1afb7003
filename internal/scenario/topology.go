package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// Topology families. A family names a deterministic generator: instance i
// of a scan is fully determined by (family, seed, i, n, dist), so a
// resumed scan regenerates byte-identical graphs.
const (
	FamilyRing       = "ring"
	FamilyTree       = "tree"
	FamilyBarbell    = "barbell"
	FamilySmallWorld = "smallworld"
	FamilyER         = "er"
)

// Families returns the registered topology family names, in canonical
// (scan) order.
func Families() []string {
	return []string{FamilyRing, FamilyTree, FamilyBarbell, FamilySmallWorld, FamilyER}
}

// ValidFamily reports whether name is a registered topology family.
func ValidFamily(name string) bool {
	for _, f := range Families() {
		if f == name {
			return true
		}
	}
	return false
}

// TopologyOptions tunes Topology. Zero values select defaults.
type TopologyOptions struct {
	// Families lists the graph families to scan, in order (required,
	// each a registered family name; see Families).
	Families []string
	// Count is the number of instances per family (default 4).
	Count int
	// N is the vertex count per instance (default 8, minimum 5 — the floor
	// of the barbell and small-world generators).
	N int
	// Grid is the misreport resolution: each vertex's candidate reports are
	// w_v·c/Grid for c ∈ {1, ..., Grid−1} (default 8; c = Grid is the
	// truthful report, which is the scan's baseline rather than a point, and
	// c = 0 is excluded — zero reports fall outside the model's w > 0
	// domain).
	Grid int
	// Seed derives every instance's rng (see instanceSeed); two scans with
	// equal options enumerate identical graphs.
	Seed int64
	// Dist is the weight distribution for generated instances.
	Dist graph.WeightDist
	// Mechanism selects the allocation backend (nil = registry default, BD).
	Mechanism mechanism.Mechanism
}

// TopologyOutcome is the scan result for one generated instance: the worst
// single-agent misreport deviation found over all vertices and grid
// reports.
type TopologyOutcome struct {
	// Family/Index locate the instance: Index is the global scan index, so
	// the instance graph is TopologyInstance(opts, Index).
	Family string
	Index  int
	// N/M are the instance's vertex and edge counts.
	N, M int
	// WorstV is the vertex with the largest misreport ratio; WorstDigit its
	// maximizing report numerator (report = w_v·WorstDigit/Grid). −1/−1
	// when no deviation beats honesty anywhere (ratio 1 at the honest
	// report of vertex 0).
	WorstV, WorstDigit int
	// Honest/Best/Ratio are U_{WorstV} truthful, its best deviation
	// utility, and Best/Honest. When Unbounded is set a vertex with zero
	// honest utility gained Best > 0 and Ratio is meaningless (zero).
	Honest, Best, Ratio numeric.Rat
	Unbounded           bool
}

// FamilySummary aggregates a family's outcomes: the worst instance and its
// deviation.
type FamilySummary struct {
	Family string
	// Count is the number of outcomes aggregated.
	Count int
	// WorstIndex is the global index of the family's worst instance (−1
	// when Count is 0). WorstRatio is that instance's ratio — or, when
	// Unbounded is set, its raw deviation utility (the ratio being
	// infinite).
	WorstIndex int
	WorstRatio numeric.Rat
	Unbounded  bool
}

// TopologyResult is the outcome of Topology, following the scan contract
// (partial prefix on cancellation).
type TopologyResult struct {
	// Outcomes covers instances [Start, NextIndex), one per instance in
	// global scan order (family-major: all of Families[0] first).
	Outcomes []TopologyOutcome
	// Summaries aggregates the returned outcomes per family, in Families
	// order (partial scans aggregate only the covered instances).
	Summaries []FamilySummary
	Partial   bool
	Start     int
	NextIndex int
	Total     int
}

// TopologyTotal returns the instance count of a scan: families × count.
func TopologyTotal(families, count int) int { return families * count }

// instanceSeed derives instance i's rng seed. The formula is part of the
// checkpoint contract — changing it would regenerate different graphs under
// resumed scans — so it is pinned here once: a fixed odd stride keeps
// neighboring instances' streams apart.
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 + 1 }

// TopologyInstance regenerates the instance at global index i of a scan
// with the given options (family-major order). The server's certificate
// path uses it to rebuild a scan's worst ring instance exactly.
func TopologyInstance(opts TopologyOptions, i int) (*graph.Graph, string, error) {
	opts = topologyDefaults(opts)
	if err := topologyValidate(opts); err != nil {
		return nil, "", err
	}
	total := TopologyTotal(len(opts.Families), opts.Count)
	if i < 0 || i >= total {
		return nil, "", fmt.Errorf("scenario: instance index %d outside [0, %d)", i, total)
	}
	family := opts.Families[i/opts.Count]
	rng := rand.New(rand.NewSource(instanceSeed(opts.Seed, i)))
	var g *graph.Graph
	switch family {
	case FamilyRing:
		g = graph.RandomRing(rng, opts.N, opts.Dist)
	case FamilyTree:
		g = graph.RandomTree(rng, opts.N, opts.Dist)
	case FamilyBarbell:
		g = graph.RandomBarbell(rng, opts.N, opts.Dist)
	case FamilySmallWorld:
		g = graph.SmallWorld(rng, opts.N, 0.3, opts.Dist)
	case FamilyER:
		g = graph.RandomConnected(rng, opts.N, 0.15, opts.Dist)
	default:
		return nil, "", fmt.Errorf("scenario: unknown topology family %q", family)
	}
	return g, family, nil
}

func topologyDefaults(opts TopologyOptions) TopologyOptions {
	if opts.Count <= 0 {
		opts.Count = 4
	}
	if opts.N <= 0 {
		opts.N = 8
	}
	if opts.Grid <= 0 {
		opts.Grid = 8
	}
	return opts
}

func topologyValidate(opts TopologyOptions) error {
	if len(opts.Families) == 0 {
		return fmt.Errorf("scenario: topology scan needs at least one family")
	}
	for _, f := range opts.Families {
		if !ValidFamily(f) {
			return fmt.Errorf("scenario: unknown topology family %q", f)
		}
	}
	if opts.N < 5 {
		return fmt.Errorf("scenario: topology scan needs n ≥ 5, got %d", opts.N)
	}
	return nil
}

// TopologyScan is a bound topology scan: the kernel scan of its instances
// (internal/scan) and the families its result summarizes.
type TopologyScan struct {
	scan.Scan[TopologyOutcome]
	Families []string
}

// NewTopology binds a scan of generated graph families for single-agent
// misreport deviations: for every instance, every vertex v tries reporting
// w_v·c/Grid for each c < Grid (the Cheng et al. deviation space
// restricted to the grid), and the instance's outcome records the vertex
// with the worst empirical incentive ratio. Unlike the ring machinery this
// is a lower-bound probe — no exactness claim beyond the evaluated points —
// but it runs under any mechanism and any registered family, which is what
// the general-network conjecture needs surveyed.
func NewTopology(opts TopologyOptions) (*TopologyScan, error) {
	opts = topologyDefaults(opts)
	if err := topologyValidate(opts); err != nil {
		return nil, err
	}
	m, err := mechanismOrDefault(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	return &TopologyScan{Families: opts.Families, Scan: scan.Scan[TopologyOutcome]{
		Len:  TopologyTotal(len(opts.Families), opts.Count),
		Site: fault.SiteScenarioPoint,
		Span: "scenario.topology",
		Name: "scenario: topology instance",
		Eval: func(ctx context.Context, i int) (TopologyOutcome, error) {
			g, family, err := TopologyInstance(opts, i)
			if err != nil {
				return TopologyOutcome{}, err
			}
			out, err := scanInstance(ctx, m, g, opts.Grid)
			if err != nil {
				return TopologyOutcome{}, fmt.Errorf("%s: %w", family, err)
			}
			out.Family, out.Index = family, i
			return *out, nil
		},
	}}, nil
}

// Result folds evaluated outcomes into a TopologyResult with per-family
// summaries of the covered instances; it never fails.
func (s *TopologyScan) Result(r *scan.Result[TopologyOutcome]) (*TopologyResult, error) {
	return &TopologyResult{
		Outcomes: r.Points, Summaries: SummarizeFamilies(s.Families, r.Points),
		Partial: r.Partial, Start: r.Start, NextIndex: r.Next, Total: s.Len,
	}, nil
}

// Topology runs the whole scan of NewTopology.
func Topology(ctx context.Context, opts TopologyOptions) (*TopologyResult, error) {
	s, err := NewTopology(opts)
	if err != nil {
		return nil, err
	}
	r, err := scan.Run(ctx, s.Scan, scan.Options[TopologyOutcome]{})
	if err != nil {
		return nil, err
	}
	return s.Result(r)
}

// worse reports whether the deviation (ratio, best, unbounded) is strictly
// worse than (ratio0, best0, unbounded0): an unbounded deviation dominates
// every finite ratio, finite ones compare by ratio, unbounded ones by raw
// deviation utility.
func worse(ratio, best numeric.Rat, unbounded bool, ratio0, best0 numeric.Rat, unbounded0 bool) bool {
	switch {
	case unbounded != unbounded0:
		return unbounded
	case unbounded:
		return best0.Less(best)
	default:
		return ratio0.Less(ratio)
	}
}

// scanInstance evaluates every (vertex, report) deviation of one instance.
func scanInstance(ctx context.Context, m mechanism.Mechanism, g *graph.Graph, grid int) (*TopologyOutcome, error) {
	honestU, err := mechanism.Utilities(ctx, m, g)
	if err != nil {
		return nil, fmt.Errorf("honest allocation: %w", err)
	}
	out := &TopologyOutcome{
		N: g.N(), M: g.M(),
		WorstV: -1, WorstDigit: -1,
		Honest: honestU[0], Best: honestU[0],
		Ratio: numeric.One,
	}
	for v := 0; v < g.N(); v++ {
		// us[c] is v's utility reporting w_v·c/Grid, with the truthful report
		// (c = Grid) in slot 0: a deviation must strictly beat honesty, and
		// the earliest strict maximum wins (vertex order, then digit).
		us := make([]numeric.Rat, grid)
		us[0] = honestU[v]
		for c := 1; c < grid; c++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			gp := g.Clone()
			gp.MustSetWeight(v, g.Weight(v).MulInt(int64(c)).DivInt(int64(grid)))
			u, err := mechanism.Utilities(ctx, m, gp)
			if err != nil {
				return nil, fmt.Errorf("vertex %d report %d/%d: %w", v, c, grid, err)
			}
			us[c] = u[v]
		}
		bestDigit := scan.Best(us, func(u numeric.Rat) numeric.Rat { return u })
		honest, best := us[0], us[bestDigit]
		if bestDigit == 0 {
			bestDigit = grid
		}
		// The ratio rule's zero-honest error is exactly the unbounded case.
		ratio, err := scan.Ratio(best, honest)
		unbounded := err != nil
		if worse(ratio, best, unbounded, out.Ratio, out.Best, out.Unbounded) {
			out.WorstV, out.WorstDigit = v, bestDigit
			out.Honest, out.Best, out.Ratio, out.Unbounded = honest, best, ratio, unbounded
		}
	}
	return out, nil
}

// SummarizeFamilies folds outcomes into per-family worst-instance
// summaries, in the given family order, over whatever prefix a (possibly
// partial or resumed) scan covered.
func SummarizeFamilies(families []string, outcomes []TopologyOutcome) []FamilySummary {
	sums := make([]FamilySummary, len(families))
	for i, f := range families {
		sums[i] = FamilySummary{Family: f, WorstIndex: -1}
	}
	pos := make(map[string]int, len(families))
	for i, f := range families {
		pos[f] = i
	}
	for _, out := range outcomes {
		j, ok := pos[out.Family]
		if !ok {
			continue
		}
		s := &sums[j]
		s.Count++
		if s.WorstIndex < 0 || worse(out.Ratio, out.Best, out.Unbounded, s.WorstRatio, s.WorstRatio, s.Unbounded) {
			s.WorstIndex = out.Index
			s.Unbounded = out.Unbounded
			if out.Unbounded {
				s.WorstRatio = out.Best
			} else {
				s.WorstRatio = out.Ratio
			}
		}
	}
	return sums
}
