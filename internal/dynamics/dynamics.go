// Package dynamics simulates the proportional response dynamics
// (Definition 1 of the paper, Wu & Zhang STOC'07):
//
//	x_vu(0)   = w_v / d_v
//	x_vu(t+1) = x_uv(t) / Σ_k x_kv(t) · w_v
//
// i.e. each agent answers the resource received from each neighbor in
// proportion. Wu & Zhang proved the dynamics converges to the BD allocation
// (Proposition 6); experiment E10 measures that convergence against the
// exact allocation from package allocation.
//
// Respond is the one agent's step of eq. (1), and the start state is every
// agent's Respond to silence (the equal split). Run iterates it
// synchronously; package p2p runs the same step over its message-passing
// transports, so the swarms compute the recurrence by construction.
//
// Unlike the exact mechanism, the simulator runs in float64: iterating the
// recurrence in exact rationals would grow denominators exponentially, and
// the object of study here is the trajectory, not the limit (the limit is
// computed exactly elsewhere). Updates within a round are data-parallel and
// executed on a worker pool.
//
// Empirical convergence rates (experiment E10): geometric toward pairs with
// α < 1, but only Θ(1/t) toward degenerate α = 1 equilibria in which some
// equilibrium transfer is exactly zero (e.g. the ring 512-512-1024, where
// x_{01} decays like 1/t). Damping does not remove the sublinear phase; it
// is inherent to the multiplicative update at the boundary of the simplex.
package dynamics

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/par"
)

// Options configures a simulation run.
type Options struct {
	// MaxRounds bounds the iteration count (default 10_000).
	MaxRounds int
	// Tol declares convergence when the max absolute change of any transfer
	// between consecutive rounds falls below it (default 1e-12).
	Tol float64
	// Damping θ ∈ [0, 1) mixes the new state with the old:
	// x ← (1-θ)·x_new + θ·x_old. 0 is the paper's plain dynamics.
	Damping float64
	// Workers sets the parallel worker count (≤ 0 = GOMAXPROCS).
	Workers int
	// TargetUtilities, when non-nil, enables per-round error tracking
	// against the exact equilibrium utilities (e.g. Proposition 6 values).
	TargetUtilities []numeric.Rat
	// InitialTransfers, when non-nil, warm-starts the dynamics from the
	// given state instead of the equal split w_v/d_v: InitialTransfers[v][j]
	// is what v sends to its j-th neighbor (graph adjacency order). Used to
	// verify fixed points: starting at the BD allocation must stay there.
	InitialTransfers [][]float64
}

// Result is the outcome of a simulation.
type Result struct {
	// X holds the final transfers: X[v][j] is what v sends to its j-th
	// neighbor (graph adjacency order).
	X [][]float64
	// Utilities holds the final per-vertex utilities.
	Utilities []float64
	// Rounds is the number of update rounds executed.
	Rounds int
	// Converged reports whether Tol was reached before MaxRounds.
	Converged bool
	// UtilityError, when target utilities were supplied, records the L∞
	// utility error after each round (UtilityError[0] is the error of the
	// initial state).
	UtilityError []float64
}

// Respond is one agent's proportional response, eq. (1): given the offers
// received from its neighbors in adjacency order and its weight w, it writes
// its next offers received[j]/U·w into next, which may be received itself,
// and returns its income U, summed in adjacency order. An agent that
// received nothing (U = 0, only in zero-weight neighborhoods or before the
// first round) falls back to the equal split w/d, so the start state is
// every agent's response to silence.
func Respond(next, received []float64, w float64) float64 {
	u := 0.0
	for _, r := range received {
		u += r
	}
	for j, r := range received {
		if u > 0 {
			next[j] = r / u * w
		} else {
			next[j] = w / float64(len(received))
		}
	}
	return u
}

// Run simulates the proportional response dynamics on g.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("dynamics: empty graph")
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 10000
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-12
	}
	if opts.Damping < 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("dynamics: damping %v outside [0, 1)", opts.Damping)
	}
	if opts.TargetUtilities != nil && len(opts.TargetUtilities) != g.N() {
		return nil, fmt.Errorf("dynamics: %d target utilities for %d vertices",
			len(opts.TargetUtilities), g.N())
	}

	n := g.N()
	w := make([]float64, n)
	for v := 0; v < n; v++ {
		w[v] = g.Weight(v).Float64()
	}
	rev := g.ReverseIndex()

	if opts.InitialTransfers != nil && len(opts.InitialTransfers) != n {
		return nil, fmt.Errorf("dynamics: %d initial transfer rows for %d vertices",
			len(opts.InitialTransfers), n)
	}
	// x[v][j] is what v sends its j-th neighbor. next[v] first takes what v
	// received, then Respond's answer in its place.
	x := make([][]float64, n)
	next := make([][]float64, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		x[v] = make([]float64, d)
		next[v] = make([]float64, d)
		if opts.InitialTransfers != nil {
			if len(opts.InitialTransfers[v]) != d {
				return nil, fmt.Errorf("dynamics: initial transfers of vertex %d have %d entries for degree %d",
					v, len(opts.InitialTransfers[v]), d)
			}
			copy(x[v], opts.InitialTransfers[v])
			continue
		}
		Respond(x[v], x[v], w[v])
	}

	var target []float64
	if opts.TargetUtilities != nil {
		target = make([]float64, n)
		for v := range target {
			target[v] = opts.TargetUtilities[v].Float64()
		}
	}

	res := &Result{}
	utilities := make([]float64, n)
	recordError := func() {
		if target == nil {
			return
		}
		maxErr := 0.0
		for v := 0; v < n; v++ {
			if e := math.Abs(utilities[v] - target[v]); e > maxErr {
				maxErr = e
			}
		}
		res.UtilityError = append(res.UtilityError, maxErr)
	}

	// Pass t reads U(t) off Respond while it computes x(t+1). The run stops
	// at the pass after a step that moved no transfer by Tol, or after
	// MaxRounds steps; that last pass's response is dropped.
	maxDelta := make([]float64, n)
	worst := math.Inf(1)
	for {
		par.ForEach(n, opts.Workers, func(v int) {
			for j, u := range g.Neighbors(v) {
				next[v][j] = x[u][rev[v][j]]
			}
			utilities[v] = Respond(next[v], next[v], w[v])
			delta := 0.0
			for j, nv := range next[v] {
				nv = (1-opts.Damping)*nv + opts.Damping*x[v][j]
				if diff := math.Abs(nv - x[v][j]); diff > delta {
					delta = diff
				}
				next[v][j] = nv
			}
			maxDelta[v] = delta
		})
		recordError()
		if worst < opts.Tol {
			res.Converged = true
			break
		}
		if res.Rounds == opts.MaxRounds {
			break
		}
		worst = 0
		for _, d := range maxDelta {
			if d > worst {
				worst = d
			}
		}
		x, next = next, x
		res.Rounds++
	}
	res.X = x
	res.Utilities = utilities
	return res, nil
}

// FinalUtilityError returns the last recorded utility error, or NaN when no
// targets were tracked.
func (r *Result) FinalUtilityError() float64 {
	if len(r.UtilityError) == 0 {
		return math.NaN()
	}
	return r.UtilityError[len(r.UtilityError)-1]
}
