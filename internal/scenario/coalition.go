package scenario

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// CoalitionOptions tunes Coalition. Zero values select defaults.
type CoalitionOptions struct {
	// Members are the colluding vertices (required, ≥ 2, distinct, in
	// range). Member order is part of the enumeration contract: the first
	// member is the most significant digit of the report odometer.
	Members []int
	// Grid is the report resolution: member j reports w_j·c_j/Grid for a
	// digit c_j ∈ {1, ..., Grid} (default 8; the grid is a full product, so
	// points grow as Grid^m). Reports are strictly positive — the zero
	// report leaves an agent with no endowment, a degenerate profile
	// outside the model's w > 0 domain; near-sacrificial members report
	// w_j/Grid instead.
	Grid int
	// Mechanism selects the allocation backend (nil = registry default, BD).
	Mechanism mechanism.Mechanism
}

// CoalitionPoint is one exactly evaluated joint misreport.
type CoalitionPoint struct {
	// Digits holds c_j per member (first member most significant in the
	// enumeration); member j reported w_j·c_j/Grid.
	Digits []int
	// Members holds each member's utility at this point (Members order of
	// the options); Joint is their sum. Carrying the per-member vector in
	// every point is what lets a resumed scan reconstruct the best point's
	// attribution without re-evaluating it.
	Members []numeric.Rat
	Joint   numeric.Rat
}

// CoalitionResult is the outcome of Coalition, following the scan contract
// (partial prefix on cancellation, earliest-maximum best).
type CoalitionResult struct {
	Points []CoalitionPoint
	// BestIndex indexes Points at the earliest maximum of Joint;
	// BestDigits/BestJoint mirror that point.
	BestIndex  int
	BestDigits []int
	BestJoint  numeric.Rat
	// HonestJoint is Σ_j U_j with every member truthful;
	// JointRatio = BestJoint / HonestJoint (1 when both zero).
	HonestJoint numeric.Rat
	JointRatio  numeric.Rat
	// Honest, BestMember hold the per-member utilities truthful and at the
	// best point (same order as Members); Gains[j] = BestMember[j] −
	// Honest[j] (may be negative — a sacrificial member), and
	// MemberRatios[j] = BestMember[j]/Honest[j] with the convention of
	// sybil.PairAttack: 1 when the honest utility is zero.
	Honest       []numeric.Rat
	BestMember   []numeric.Rat
	Gains        []numeric.Rat
	MemberRatios []numeric.Rat
	Partial      bool
	Start        int
	NextIndex    int
	Total        int
}

// CoalitionTotal returns grid^members, the full point count of a coalition
// scan, or an error when it exceeds limit (limit ≤ 0 = no cap).
func CoalitionTotal(grid, members, limit int) (int, error) {
	if grid <= 0 || members < 2 {
		return 0, fmt.Errorf("scenario: coalition needs grid ≥ 1 and ≥ 2 members, got (%d, %d)", grid, members)
	}
	total := 1
	for j := 0; j < members; j++ {
		total *= grid
		if limit > 0 && total > limit {
			return 0, fmt.Errorf("scenario: coalition grid %d^%d exceeds %d points", grid, members, limit)
		}
	}
	return total, nil
}

// coalitionDigits decodes point index i into per-member digits in
// {1, ..., grid}, first member most significant, base grid.
func coalitionDigits(i, grid, members int) []int {
	d := make([]int, members)
	for j := members - 1; j >= 0; j-- {
		d[j] = 1 + i%grid
		i /= grid
	}
	return d
}

// CoalitionScan is a bound coalition scan: the kernel scan of its points
// (internal/scan) and the truthful per-member utilities its result folds
// against.
type CoalitionScan struct {
	scan.Scan[CoalitionPoint]
	Honest []numeric.Rat
}

// NewCoalition binds the joint misreports of a set of colluding agents on
// any connected graph: each member j simultaneously reports w_j·c_j/Grid
// in place of its true endowment w_j, over the full product grid of digit
// vectors in odometer order (first member most significant, so point
// Total−1 is the all-truthful profile). The objective is the coalition's
// joint utility; per-member gain attribution at the best point shows who
// profits and who sacrifices. Theorem 8 does not govern these deviations —
// the scan is the engine form of experiment E16, which shows coalitions
// escaping the ×2 bound.
func NewCoalition(ctx context.Context, g *graph.Graph, opts CoalitionOptions) (*CoalitionScan, error) {
	if len(opts.Members) < 2 {
		return nil, fmt.Errorf("scenario: coalition needs ≥ 2 members, got %d", len(opts.Members))
	}
	if opts.Grid <= 0 {
		opts.Grid = 8
	}
	seen := make(map[int]bool, len(opts.Members))
	for _, v := range opts.Members {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("scenario: coalition member %d outside [0, %d)", v, g.N())
		}
		if seen[v] {
			return nil, fmt.Errorf("scenario: coalition member %d listed twice", v)
		}
		seen[v] = true
	}
	total, err := CoalitionTotal(opts.Grid, len(opts.Members), 0)
	if err != nil {
		return nil, err
	}
	m, err := mechanismOrDefault(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	honestAlloc, err := m.Allocate(ctx, g)
	if err != nil {
		return nil, fmt.Errorf("scenario: honest allocation: %w", err)
	}
	honest := make([]numeric.Rat, len(opts.Members))
	for j, v := range opts.Members {
		honest[j] = honestAlloc.Utility(v)
	}
	return &CoalitionScan{Honest: honest, Scan: scan.Scan[CoalitionPoint]{
		Len:  total,
		Site: fault.SiteScenarioPoint,
		Span: "scenario.coalition",
		Name: "scenario: coalition point",
		Eval: func(ctx context.Context, i int) (CoalitionPoint, error) {
			p := CoalitionPoint{Digits: coalitionDigits(i, opts.Grid, len(opts.Members))}
			gp := g.Clone()
			for j, v := range opts.Members {
				gp.MustSetWeight(v, g.Weight(v).MulInt(int64(p.Digits[j])).DivInt(int64(opts.Grid)))
			}
			a, err := m.Allocate(ctx, gp)
			if err != nil {
				return p, err
			}
			p.Members = make([]numeric.Rat, len(opts.Members))
			for j, v := range opts.Members {
				p.Members[j] = a.Utility(v)
				p.Joint = p.Joint.Add(p.Members[j])
			}
			return p, nil
		},
	}}, nil
}

// Result folds evaluated points into a CoalitionResult: the
// earliest-maximum joint utility, its per-member attribution, and the
// shared ratio rule.
func (s *CoalitionScan) Result(r *scan.Result[CoalitionPoint]) (*CoalitionResult, error) {
	res := &CoalitionResult{Points: r.Points, Honest: s.Honest, Partial: r.Partial, Start: r.Start, NextIndex: r.Next, Total: s.Len}
	res.HonestJoint = numeric.Sum(s.Honest)
	if len(r.Points) > 0 {
		res.BestIndex = scan.Best(r.Points, func(p CoalitionPoint) numeric.Rat { return p.Joint })
		best := r.Points[res.BestIndex]
		res.BestDigits, res.BestJoint, res.BestMember = best.Digits, best.Joint, best.Members
		res.Gains = make([]numeric.Rat, len(s.Honest))
		res.MemberRatios = make([]numeric.Rat, len(s.Honest))
		for j, h := range s.Honest {
			res.Gains[j] = best.Members[j].Sub(h)
			if h.Sign() > 0 {
				res.MemberRatios[j] = best.Members[j].Div(h)
			} else {
				res.MemberRatios[j] = numeric.One
			}
		}
	}
	ratio, err := scan.Ratio(res.BestJoint, res.HonestJoint)
	if err != nil {
		return nil, fmt.Errorf("scenario: coalition: %w", err)
	}
	res.JointRatio = ratio
	return res, nil
}

// Coalition runs the whole scan of NewCoalition.
func Coalition(ctx context.Context, g *graph.Graph, opts CoalitionOptions) (*CoalitionResult, error) {
	s, err := NewCoalition(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	r, err := scan.Run(ctx, s.Scan, scan.Options[CoalitionPoint]{})
	if err != nil {
		return nil, err
	}
	return s.Result(r)
}
