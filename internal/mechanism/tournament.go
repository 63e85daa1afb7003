package mechanism

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/scan"
	"repro/internal/sybil"
)

// TournamentInstance is one arena: a ring graph and the designated attacker
// vertex whose Sybil split curve is swept under every competing mechanism.
type TournamentInstance struct {
	G *graph.Graph
	V int
}

// TournamentOptions tunes NewTournament. Zero values select defaults.
type TournamentOptions struct {
	// Mechanisms selects the competitors by name (empty = every registered
	// mechanism). The set is sorted and deduplicated, so output order never
	// depends on input or registration order.
	Mechanisms []string
	// Grid is the sweep resolution shared by every cell (default 64).
	Grid int
	// Workers bounds per-sweep parallelism (≤ 0 = GOMAXPROCS).
	Workers int
}

// Cell is one (instance, mechanism) evaluation: the honest allocation's
// aggregate metrics plus the empirical Sybil sweep outcome.
type Cell struct {
	// Mechanism is the backend's registry name.
	Mechanism string `json:"mechanism"`
	// Efficiency is the total utility Σ_v U_v of the honest allocation.
	Efficiency numeric.Rat `json:"efficiency"`
	// Fairness is min_v U_v / max_v U_v (1 when every utility is zero).
	Fairness numeric.Rat `json:"fairness"`
	// Honest is the attacker's utility without splitting.
	Honest numeric.Rat `json:"honest"`
	// BestW1/BestU is the best two-identity split found on the grid.
	BestW1 numeric.Rat `json:"best_w1"`
	BestU  numeric.Rat `json:"best_u"`
	// Ratio is the empirical incentive ratio BestU/Honest on the grid.
	Ratio numeric.Rat `json:"ratio"`
}

// MechanismSummary aggregates one mechanism's column across all instances.
type MechanismSummary struct {
	Mechanism       string      `json:"mechanism"`
	Instances       int         `json:"instances"`
	MaxRatio        numeric.Rat `json:"max_ratio"`
	MeanRatio       numeric.Rat `json:"mean_ratio"`
	MinFairness     numeric.Rat `json:"min_fairness"`
	TotalEfficiency numeric.Rat `json:"total_efficiency"`
}

// TournamentResult is the full head-to-head outcome: the cell matrix in
// (instance, sorted mechanism) order plus per-mechanism summaries.
type TournamentResult struct {
	Mechanisms []string `json:"mechanisms"`
	Grid       int      `json:"grid"`
	// Cells[i][j] is instance i under Mechanisms[j].
	Cells   [][]Cell           `json:"cells"`
	Summary []MechanismSummary `json:"summary"`
}

// ResolveSet validates and canonicalizes a mechanism name selection: empty
// input selects every registered mechanism; otherwise each name must
// resolve, and the result is sorted and deduplicated.
func ResolveSet(names []string) ([]string, error) {
	if len(names) == 0 {
		return Names(), nil
	}
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" {
			n = Default
		}
		if _, err := Get(n); err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// EvaluateCell runs one (instance, mechanism) cell: the honest utilities'
// efficiency and fairness, then the full Sybil sweep for the empirical
// incentive ratio.
func EvaluateCell(ctx context.Context, m Mechanism, g *graph.Graph, v int, grid, workers int) (Cell, error) {
	utils, err := Utilities(ctx, m, g)
	if err != nil {
		return Cell{}, fmt.Errorf("mechanism %s: honest allocation: %w", m.Name(), err)
	}
	cell := Cell{
		Mechanism:  m.Name(),
		Efficiency: numeric.Sum(utils),
		Fairness:   fairness(utils),
	}
	sw, err := RingSweep(ctx, m, g, v, sybil.SweepOptions{Grid: grid, Workers: workers})
	if err != nil {
		return Cell{}, fmt.Errorf("mechanism %s: sweep: %w", m.Name(), err)
	}
	if sw.Partial {
		return Cell{}, ctx.Err()
	}
	cell.Honest = sw.Honest
	cell.BestW1 = sw.BestW1
	cell.BestU = sw.BestU
	cell.Ratio = sw.Ratio
	return cell, nil
}

// fairness is min/max of the utilities, with the all-zero convention of 1.
func fairness(utils []numeric.Rat) numeric.Rat {
	if len(utils) == 0 {
		return numeric.One
	}
	max := numeric.MaxOf(utils)
	if max.IsZero() {
		return numeric.One
	}
	return numeric.MinOf(utils).Div(max)
}

// TournamentScan is a tournament as a kernel scan (internal/scan): cell k
// is instance k/len(Mechanisms) under Mechanisms[k%len(Mechanisms)], in
// row-major order, so every selected mechanism meets every instance under
// the identical attack grid. Instances keep their input order; mechanisms
// are sorted.
type TournamentScan struct {
	scan.Scan[Cell]
	Mechanisms []string
	Grid       int
}

// NewTournament binds the tournament of instances under opts.
func NewTournament(instances []TournamentInstance, opts TournamentOptions) (*TournamentScan, error) {
	if opts.Grid <= 0 {
		opts.Grid = 64
	}
	names, err := ResolveSet(opts.Mechanisms)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("mechanism: tournament needs at least one instance")
	}
	ms := make([]Mechanism, len(names))
	for j, name := range names {
		if ms[j], err = Get(name); err != nil {
			return nil, err
		}
	}
	return &TournamentScan{Mechanisms: names, Grid: opts.Grid, Scan: scan.Scan[Cell]{
		Len:  len(instances) * len(names),
		Name: "mechanism: tournament cell",
		Span: "mechanism.tournament",
		Eval: func(ctx context.Context, k int) (Cell, error) {
			inst := instances[k/len(names)]
			return EvaluateCell(ctx, ms[k%len(names)], inst.G, inst.V, opts.Grid, opts.Workers)
		},
	}}, nil
}

// Result assembles the TournamentResult of a complete row-major cell list,
// with per-mechanism summaries computed from the cells alone.
func (t *TournamentScan) Result(cells []Cell) *TournamentResult {
	nm := len(t.Mechanisms)
	res := &TournamentResult{Mechanisms: t.Mechanisms, Grid: t.Grid, Cells: make([][]Cell, len(cells)/nm)}
	for i := range res.Cells {
		res.Cells[i] = cells[i*nm : (i+1)*nm]
	}
	for j, name := range t.Mechanisms {
		s := MechanismSummary{Mechanism: name}
		sum := numeric.Zero
		for i := range res.Cells {
			c := res.Cells[i][j]
			s.Instances++
			sum = sum.Add(c.Ratio)
			if s.Instances == 1 {
				s.MaxRatio, s.MinFairness = c.Ratio, c.Fairness
			} else {
				s.MaxRatio = s.MaxRatio.Max(c.Ratio)
				s.MinFairness = s.MinFairness.Min(c.Fairness)
			}
			s.TotalEfficiency = s.TotalEfficiency.Add(c.Efficiency)
		}
		if s.Instances > 0 {
			s.MeanRatio = sum.DivInt(int64(s.Instances))
		}
		res.Summary = append(res.Summary, s)
	}
	return res
}
