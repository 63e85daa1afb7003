package sybil

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/scan"
)

// SweepOptions tunes a two-identity sweep. Zero values select defaults.
type SweepOptions struct {
	// Grid is the number of uniform w1 intervals over [0, w_v] (default 64;
	// the sweep evaluates Grid+1 points including both endpoints).
	Grid int
	// Workers bounds the parallel evaluation workers (≤ 0 = GOMAXPROCS).
	Workers int
	// Start is the first grid index to evaluate, in [0, Grid]. A resumed
	// sweep passes the NextIndex of an earlier partial result; the returned
	// Points then cover [Start, NextIndex).
	Start int
}

// SweepPoint is one exactly evaluated split of the sweep.
type SweepPoint struct {
	W1 numeric.Rat
	// U is the attacker's combined utility U_{v¹} + U_{v²} at this split.
	U numeric.Rat
}

// SweepResult is the outcome of a sweep. When the context was canceled
// mid-sweep, Partial is true and Points holds only the contiguous completed
// prefix starting at Start — every point in it is bit-identical to the same
// point of an uncanceled run, because points are independent and exact.
// NextIndex is the first grid index NOT covered; rerunning with
// Start=NextIndex and concatenating Points reconstructs the full sweep.
type SweepResult struct {
	Points []SweepPoint
	// BestW1/BestU is the best split among Points (a lower bound on the
	// optimum; use core.Instance.Optimize for the certified piecewise
	// search). Zero when Points is empty.
	BestW1, BestU numeric.Rat
	// BestIndex is the index into Points of the best split — the earliest
	// maximum: BestU strictly exceeds every earlier point and is ≥ every
	// later one. Certificates (internal/cert) record and re-verify this
	// rule. Zero when Points is empty.
	BestIndex int
	// Honest is U_v(G; w), and Ratio = BestU / Honest (1 when both zero).
	// For a partial result the ratio covers only the returned points.
	Honest, Ratio numeric.Rat
	// Partial reports that cancellation cut the sweep short; Start/NextIndex
	// delimit the covered index range [Start, NextIndex).
	Partial   bool
	Start     int
	NextIndex int
	// Stats exposes the evaluation-cache and incremental-solver counters
	// accumulated by the sweep (zero for mechanisms without the incremental
	// split engine).
	Stats core.EvalStats
}

// SplitFunc evaluates the attacker's combined utility at the two-identity
// split (w1, w2).
type SplitFunc func(ctx context.Context, w1, w2 numeric.Rat) (numeric.Rat, error)

// Sweep is the two-identity sweep as a kernel scan (internal/scan): point i
// is the split w1 = W·i/Grid, w2 = W − w1, for i in [0, Grid].
type Sweep struct {
	scan.Scan[SweepPoint]
	Grid   int
	Honest numeric.Rat
}

// NewSweep binds the sweep of an attacker of weight W and honest utility
// honest over grid (≤ 0 = 64), evaluating every split with eval.
func NewSweep(W, honest numeric.Rat, grid int, eval SplitFunc) *Sweep {
	if grid <= 0 {
		grid = 64
	}
	return &Sweep{Grid: grid, Honest: honest, Scan: scan.Scan[SweepPoint]{
		Len:  grid + 1,
		Site: fault.SiteSweepPoint,
		Name: "sybil: sweep point",
		Span: "sybil.ring_sweep",
		Eval: func(ctx context.Context, i int) (SweepPoint, error) {
			w1 := W.MulInt(int64(i)).DivInt(int64(grid))
			u, err := eval(ctx, w1, W.Sub(w1))
			return SweepPoint{W1: w1, U: u}, err
		},
	}}
}

// Run evaluates the sweep from opts.Start on opts.Workers workers. A
// context canceled mid-sweep yields the completed prefix with Partial set,
// so a deadline converts the sweep into a resumable checkpoint.
func (s *Sweep) Run(ctx context.Context, opts SweepOptions) (*SweepResult, error) {
	if opts.Start < 0 || opts.Start > s.Grid {
		return nil, fmt.Errorf("sybil: start index %d outside [0, %d]", opts.Start, s.Grid)
	}
	r, err := scan.Run(ctx, s.Scan, scan.Options[SweepPoint]{Start: opts.Start, Workers: par.Workers(opts.Workers)})
	if err != nil {
		return nil, err
	}
	return s.Result(r)
}

// Result folds evaluated points into a SweepResult: the earliest-maximum
// best point and the shared ratio rule.
func (s *Sweep) Result(r *scan.Result[SweepPoint]) (*SweepResult, error) {
	res := &SweepResult{Points: r.Points, Honest: s.Honest, Partial: r.Partial, Start: r.Start, NextIndex: r.Next}
	if len(r.Points) > 0 {
		res.BestIndex = scan.Best(r.Points, func(p SweepPoint) numeric.Rat { return p.U })
		res.BestW1, res.BestU = r.Points[res.BestIndex].W1, r.Points[res.BestIndex].U
	}
	ratio, err := scan.Ratio(res.BestU, s.Honest)
	if err != nil {
		return nil, fmt.Errorf("sybil: %w", err)
	}
	res.Ratio = ratio
	return res, nil
}

// RingSweep evaluates the two-identity split utility curve of agent v on
// ring g under the BD mechanism at Grid+1 evenly spaced w1 values, sharing
// one core.Instance so the incremental split engine — cached interior
// transfers, warm-started Dinkelbach, memoized residual tails — is reused
// across the whole sweep instead of paying a fresh decomposition per point.
// For other mechanisms, see mechanism.RingSweep.
func RingSweep(g *graph.Graph, v int, opts SweepOptions) (*SweepResult, error) {
	return RingSweepCtx(context.Background(), g, v, opts)
}

// RingSweepCtx is RingSweep with cancellation, tracing and partial results
// (see Sweep.Run).
func RingSweepCtx(ctx context.Context, g *graph.Graph, v int, opts SweepOptions) (*SweepResult, error) {
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		return nil, err
	}
	return instanceSweep(ctx, in, opts)
}

// instanceSweep is RingSweepCtx on the split engine of an existing
// Instance, whichever engine it was set to: a cold one (SetEvalCache and
// SetIncremental off) decomposes every point from scratch and gives the
// same points. Stats reports in's counters.
func instanceSweep(ctx context.Context, in *core.Instance, opts SweepOptions) (*SweepResult, error) {
	res, err := NewSweep(in.W(), in.HonestU, opts.Grid, func(ctx context.Context, w1, w2 numeric.Rat) (numeric.Rat, error) {
		ev, err := in.EvalPairCtx(ctx, w1, w2)
		if err != nil {
			return numeric.Rat{}, err
		}
		return ev.U, nil
	}).Run(ctx, opts)
	if err != nil {
		return nil, err
	}
	res.Stats = in.EvalStats()
	return res, nil
}
