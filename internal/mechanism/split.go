package mechanism

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

// Splitter is the one Sybil split evaluator behind every ring search, the
// two-identity sweep and the k-identity scan alike. It binds attacker v of
// ring g under one mechanism and evaluates P_v(w1, wk): identity v¹ (weight
// w1) keeps the edge to v's successor, v^k (weight wk) the edge to its
// predecessor, and the isolated middle identities hold the rest of w_v and
// earn nothing. BD (any Decomposer) evaluates on the incremental
// core.Instance engine; other mechanisms pay one Allocate per point.
type Splitter struct {
	// Honest is the attacker's utility without splitting; W its weight.
	Honest, W numeric.Rat
	// K is the number of identities per split.
	K    int
	eval sybil.SplitFunc
	in   *core.Instance
}

// InstanceFunc supplies the core.Instance of the attacker, so a caller's
// solver cache (memoized pair evaluations, warm Dinkelbach state) is reused.
type InstanceFunc func(ctx context.Context) (*core.Instance, error)

// NewSplitter binds the k-identity splits (k ≥ 2) of agent v on ring g
// under m. instance, consulted only for BD, defaults to a fresh instance.
func NewSplitter(ctx context.Context, m Mechanism, g *graph.Graph, v, k int, instance InstanceFunc) (*Splitter, error) {
	if !g.IsRing() {
		return nil, fmt.Errorf("mechanism: graph is not a ring")
	}
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("mechanism: vertex %d outside [0, %d)", v, g.N())
	}
	if _, bd := m.(Decomposer); bd {
		if instance == nil {
			instance = func(ctx context.Context) (*core.Instance, error) { return core.NewInstanceCtx(ctx, g, v) }
		}
		in, err := instance(ctx)
		if err != nil {
			return nil, err
		}
		eval := func(ctx context.Context, w1, wk numeric.Rat) (numeric.Rat, error) {
			ev, err := in.EvalWithheldCtx(ctx, w1, wk)
			if err != nil {
				return numeric.Rat{}, err
			}
			return ev.U, nil
		}
		return &Splitter{Honest: in.HonestU, W: in.W(), K: k, eval: eval, in: in}, nil
	}
	a, err := m.Allocate(ctx, g)
	if err != nil {
		return nil, fmt.Errorf("mechanism: honest allocation: %w", err)
	}
	sp := &Splitter{Honest: a.Utility(v), W: g.Weight(v), K: k}
	if k == 2 {
		// Iterative mechanisms (pr) are sensitive to the split graph's vertex
		// numbering, so the two-identity split keeps graph.TwoSplitOnRing's
		// construction rather than an isomorphic path.
		sp.eval = func(ctx context.Context, w1, _ numeric.Rat) (numeric.Rat, error) {
			return SplitUtility(ctx, m, g, v, w1)
		}
		return sp, nil
	}
	ring, err := g.RingOrder(v)
	if err != nil {
		return nil, err
	}
	// The split path runs v¹, then the rest of the ring in ring order, then
	// v^k — the vertex sequence of graph.TwoSplitOnRing.
	interior := make([]numeric.Rat, len(ring)-1)
	for i, u := range ring[1:] {
		interior[i] = g.Weight(u)
	}
	sp.eval = func(ctx context.Context, w1, wk numeric.Rat) (numeric.Rat, error) {
		ws := make([]numeric.Rat, 0, len(interior)+2)
		ws = append(ws, w1)
		ws = append(ws, interior...)
		ws = append(ws, wk)
		p := graph.Path(ws)
		a, err := m.Allocate(ctx, p)
		if err != nil {
			return numeric.Rat{}, err
		}
		return a.Utility(0).Add(a.Utility(p.N() - 1)), nil
	}
	return sp, nil
}

// Eval returns the attacker's combined utility at the split (w1, wk).
func (s *Splitter) Eval(ctx context.Context, w1, wk numeric.Rat) (numeric.Rat, error) {
	return s.eval(ctx, w1, wk)
}

// Sweep binds the two-identity sweep of a K = 2 splitter over grid.
func (s *Splitter) Sweep(grid int) *sybil.Sweep { return sybil.NewSweep(s.W, s.Honest, grid, s.eval) }

// Stats returns the incremental engine's counters (zero off the BD path).
func (s *Splitter) Stats() core.EvalStats {
	if s.in == nil {
		return core.EvalStats{}
	}
	return s.in.EvalStats()
}

// RingSweep evaluates the two-identity Sybil split curve of agent v on ring
// g under mechanism m over the uniform w1 grid w1_i = W·i/Grid, with the
// sweep contract of sybil.Sweep: Start in [0, Grid], earliest-maximum
// best, partial prefix results on cancellation.
func RingSweep(ctx context.Context, m Mechanism, g *graph.Graph, v int, opts sybil.SweepOptions) (*sybil.SweepResult, error) {
	sp, err := NewSplitter(ctx, m, g, v, 2, func(ctx context.Context) (*core.Instance, error) {
		return sybil.NewInstance(ctx, g, v, opts.Cold)
	})
	if err != nil {
		return nil, err
	}
	res, err := sp.Sweep(opts.Grid).Run(ctx, opts)
	if err != nil {
		return nil, err
	}
	res.Stats = sp.Stats()
	return res, nil
}

// SplitUtility evaluates one two-identity split under m: build the split
// path graph with v's weight divided (w1, W−w1) and sum the utilities of
// the two attacker identities.
func SplitUtility(ctx context.Context, m Mechanism, g *graph.Graph, v int, w1 numeric.Rat) (numeric.Rat, error) {
	W := g.Weight(v)
	path, _, v1, v2, err := graph.TwoSplitOnRing(g, v, w1, W.Sub(w1))
	if err != nil {
		return numeric.Zero, err
	}
	a, err := m.Allocate(ctx, path)
	if err != nil {
		return numeric.Zero, err
	}
	return a.Utility(v1).Add(a.Utility(v2)), nil
}
