package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// KSybilOptions tunes KSybil. Zero values select defaults.
type KSybilOptions struct {
	// K is the number of identities the agent splits into (required, ≥ 2).
	// k = 2 is exactly the paper's two-identity split; the enumeration then
	// reproduces the two-identity sweep index for index, point for point.
	K int
	// Grid is the composition resolution: identity j receives
	// w_v·c_j/Grid with Σ c_j = Grid (default 64).
	Grid int
	// Mechanism selects the allocation backend (nil = the registry default,
	// BD). Points are evaluated by the one split evaluator of
	// mechanism.Splitter.
	Mechanism mechanism.Mechanism
	// Instance, when non-nil, supplies a pre-built BD instance for g/v so a
	// caller's solver cache (memoized pair evaluations, warm Dinkelbach
	// state) is reused. Only consulted on the BD path.
	Instance *core.Instance
}

// KSybilPoint is one exactly evaluated k-way split.
type KSybilPoint struct {
	// Comp is the grid composition (c_1, ..., c_k), Σ c_j = Grid; identity j
	// holds w_v·c_j/Grid.
	Comp []int
	// U is the attacker's combined utility Σ_j U_{v^j} at this split.
	U numeric.Rat
}

// KSybilResult is the outcome of KSybil, with the scan contract of
// internal/scan: on cancellation Points holds the contiguous completed
// prefix starting at Start, Partial is set, and rerunning from NextIndex
// and concatenating Points reconstructs the full scan bit for bit.
type KSybilResult struct {
	Points []KSybilPoint
	// BestIndex is the index into Points of the best split — the earliest
	// maximum. BestComp/BestU mirror that point. Zero values when Points is
	// empty.
	BestIndex int
	BestComp  []int
	BestU     numeric.Rat
	// Honest is U_v(G; w) under the selected mechanism, and
	// Ratio = BestU / Honest (1 when both are zero). For a partial result
	// the ratio covers only the returned points.
	Honest, Ratio numeric.Rat
	// Partial/Start/NextIndex delimit the covered index range
	// [Start, NextIndex).
	Partial   bool
	Start     int
	NextIndex int
	// Total is the number of points of the full (symmetry-reduced)
	// enumeration — the denominator for progress reporting.
	Total int
}

// KSybilTotal returns the number of points a KSybil scan over grid/k
// evaluates (the symmetry-reduced composition count), capped at limit as in
// Odometer.Count. It is the submission-time validator for the durable job.
func KSybilTotal(grid, k, limit int) (int, error) {
	o, err := NewOdometer(grid, k, true)
	if err != nil {
		return 0, err
	}
	return o.Count(limit), nil
}

// KSybilScan is a bound k-identity scan: the kernel scan of its points
// (internal/scan) and the honest baseline its result folds against.
type KSybilScan struct {
	scan.Scan[KSybilPoint]
	Honest numeric.Rat
}

// NewKSybil binds the k-identity Sybil attack of agent v on ring g: v
// splits into identities v¹..v^k, v¹ keeping the edge to v's successor on
// the ring, v^k the edge to the predecessor, and v²..v^{k-1} isolated.
// Weights range over the composition grid Σ c_j = Grid in odometer order
// (see NewOdometer; interior permutations are reduced for k ≥ 3, since
// isolated identities are interchangeable under any anonymous mechanism).
//
// Isolated identities earn nothing — they have no neighbors to trade with —
// so each point is the split P_v(w¹, w^k) of mechanism.Splitter, with total
// reported weight w¹ + w^k ≤ w_v. For k = 2 this is exactly the
// two-identity sweep, point for point.
func NewKSybil(ctx context.Context, g *graph.Graph, v int, opts KSybilOptions) (*KSybilScan, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("scenario: k-identity scan needs k ≥ 2, got %d", opts.K)
	}
	m, err := mechanismOrDefault(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	var instance mechanism.InstanceFunc
	if opts.Instance != nil {
		instance = func(context.Context) (*core.Instance, error) { return opts.Instance, nil }
	}
	sp, err := mechanism.NewSplitter(ctx, m, g, v, opts.K, instance)
	if err != nil {
		return nil, err
	}
	return KSybilOf(sp, opts.Grid)
}

// KSybilOf binds the scan over the sp.K-identity splits of sp on grid
// (≤ 0 = 64).
func KSybilOf(sp *mechanism.Splitter, grid int) (*KSybilScan, error) {
	k := sp.K
	if grid <= 0 {
		grid = 64
	}
	od, err := NewOdometer(grid, k, true)
	if err != nil {
		return nil, err
	}
	var comps [][]int
	for c, ok := od.Next(); ok; c, ok = od.Next() {
		comps = append(comps, append([]int(nil), c...))
	}
	share := func(c int) numeric.Rat { return sp.W.MulInt(int64(c)).DivInt(int64(grid)) }
	return &KSybilScan{Honest: sp.Honest, Scan: scan.Scan[KSybilPoint]{
		Len:  len(comps),
		Site: fault.SiteScenarioPoint,
		Span: "scenario.ksybil",
		Name: "scenario: ksybil point",
		Eval: func(ctx context.Context, i int) (KSybilPoint, error) {
			c := comps[i]
			u, err := sp.Eval(ctx, share(c[0]), share(c[k-1]))
			return KSybilPoint{Comp: c, U: u}, err
		},
	}}, nil
}

// Result folds evaluated points into a KSybilResult: the earliest-maximum
// best split and the shared ratio rule.
func (s *KSybilScan) Result(r *scan.Result[KSybilPoint]) (*KSybilResult, error) {
	res := &KSybilResult{Points: r.Points, Honest: s.Honest, Partial: r.Partial, Start: r.Start, NextIndex: r.Next, Total: s.Len}
	if len(r.Points) > 0 {
		res.BestIndex = scan.Best(r.Points, func(p KSybilPoint) numeric.Rat { return p.U })
		res.BestComp, res.BestU = r.Points[res.BestIndex].Comp, r.Points[res.BestIndex].U
	}
	ratio, err := scan.Ratio(res.BestU, res.Honest)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	res.Ratio = ratio
	return res, nil
}

// KSybil runs the whole scan of NewKSybil.
func KSybil(ctx context.Context, g *graph.Graph, v int, opts KSybilOptions) (*KSybilResult, error) {
	s, err := NewKSybil(ctx, g, v, opts)
	if err != nil {
		return nil, err
	}
	r, err := scan.Run(ctx, s.Scan, scan.Options[KSybilPoint]{})
	if err != nil {
		return nil, err
	}
	return s.Result(r)
}
