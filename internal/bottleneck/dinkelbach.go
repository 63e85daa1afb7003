package bottleneck

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// minimizeOracle is the parametric subproblem behind the maximal-bottleneck
// search: for a fixed λ ≥ 0, minimize f_λ(S) = w(Γ(S)) − λ·w(S) over all
// vertex sets S (the empty set, of value 0, included).
//
// f_λ is submodular (w(Γ(·)) is submodular, λ·w(·) is modular), so its
// minimizers form a lattice closed under union; the maximal minimizer is the
// union of all minimizers, and at the optimal λ it is exactly the maximal
// bottleneck of Definition 2.
//
// The two methods split the work so Dinkelbach's intermediate iterations
// stay cheap: value reports the minimum together with the weight w(S) of a
// minimizer (enough to update λ, since α(S) = λ + val/w(S)), while maximal
// extracts the full maximal minimizer — needed only once, at the optimum.
type minimizeOracle interface {
	value(lambda numeric.Rat) (val, wS numeric.Rat)
	maximal(lambda numeric.Rat) []int
}

// errWarmTooLow reports that a warm-started Dinkelbach run began below the
// optimum λ*: the subproblem minimum is 0 but only zero-weight sets attain
// it, so the run cannot certify a bottleneck. Callers restart cold.
var errWarmTooLow = errors.New("bottleneck: warm start below λ*")

// maxBottleneck runs Dinkelbach's parametric method: starting from
// λ = α(V) ≤ 1 it alternates between solving the λ-subproblem and updating
// λ ← α(S) for the returned minimizer S. Every iterate is an attained
// α-value and strictly decreases, so with exact arithmetic the loop
// terminates at λ* = min_S α(S) with the maximal bottleneck in hand.
//
// The graph must have positive total weight.
func maxBottleneck(ctx context.Context, g *graph.Graph, o minimizeOracle, iterTrace func(lambda, value numeric.Rat)) (numeric.Rat, []int, error) {
	wV := g.TotalWeight()
	if wV.Sign() <= 0 {
		return numeric.Rat{}, nil, fmt.Errorf("bottleneck: graph has zero total weight")
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	lambda := g.WeightOf(g.NeighborhoodSet(all)).Div(wV) // α(V) ≤ 1
	return dinkelbachLoop(ctx, g.N(), g.WeightOf, o, lambda, false, iterTrace)
}

// maxBottleneckWarmAt runs the Dinkelbach loop for a caller that supplies
// the vertex count, the weight function and the cold starting iterate α(V)
// directly, and first tries the warm start λ0 (typically the λ* of a
// structurally nearby instance). Any λ0 ≥ λ* converges to the identical
// (λ*, maximal bottleneck) fixed point — the optimum is unique, so warm
// starting can change only the iterate path, never the answer. A λ0 that
// undershoots λ* is detected (the subproblem minimum is 0 yet no
// positive-weight set attains it) and the search restarts from the cold
// α(V), which alphaV computes only then. A λ0 outside (0, 1] is ignored.
// The boolean reports whether the warm run produced the answer.
func maxBottleneckWarmAt(ctx context.Context, n int, weightOf func([]int) numeric.Rat, alphaV func() numeric.Rat, o minimizeOracle, warm numeric.Rat) (numeric.Rat, []int, bool, error) {
	if warm.Sign() > 0 && warm.Cmp(numeric.One) <= 0 {
		alpha, S, err := dinkelbachLoop(ctx, n, weightOf, o, warm, true, nil)
		if err == nil {
			return alpha, S, true, nil
		}
		if !errors.Is(err, errWarmTooLow) {
			return numeric.Rat{}, nil, false, err
		}
	}
	alpha, S, err := dinkelbachLoop(ctx, n, weightOf, o, alphaV(), false, nil)
	return alpha, S, false, err
}

// dinkelbachLoop is the one Dinkelbach iteration behind every engine — the
// flow, DP and brute oracles and the split solver's transfer oracle. It is
// graph-agnostic: only the vertex count (for the safety bound) and a weight
// function (for the degeneracy check at λ*) are needed beyond the oracle.
// With warm set, an undershooting start is reported as errWarmTooLow
// instead of a hard failure. The context is checked before every subproblem
// solve, so cancellation lands between iterations — never inside one — and
// the caller observes ctx.Err() with no partial state.
func dinkelbachLoop(ctx context.Context, n int, weightOf func([]int) numeric.Rat, o minimizeOracle, lambda numeric.Rat, warm bool, iterTrace func(lambda, value numeric.Rat)) (numeric.Rat, []int, error) {
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return numeric.Rat{}, nil, err
		}
		if err := fault.Hit(ctx, fault.SiteDinkelbach); err != nil {
			return numeric.Rat{}, nil, err
		}
		if iter > n*n+64 {
			// Dinkelbach over exact rationals converges in far fewer steps;
			// exceeding this bound means a solver bug, not a hard instance.
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: Dinkelbach did not converge after %d iterations", iter)
		}
		val, wS := o.value(lambda)
		if iterTrace != nil {
			iterTrace(lambda, val)
		}
		if val.Sign() > 0 {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: subproblem returned positive minimum %v (∅ has value 0)", val)
		}
		if val.Sign() == 0 {
			S := o.maximal(lambda)
			if weightOf(S).Sign() <= 0 {
				if warm {
					return numeric.Rat{}, nil, errWarmTooLow
				}
				return numeric.Rat{}, nil, fmt.Errorf("bottleneck: degenerate maximal minimizer at λ=%v", lambda)
			}
			return lambda, S, nil
		}
		// val < 0 forces w(S) > 0 (f(S) < 0 needs λ·w(S) > w(Γ(S)) ≥ 0).
		if wS.Sign() <= 0 {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: negative minimum %v with zero-weight minimizer", val)
		}
		next := lambda.Add(val.Div(wS)) // = (λ·w(S) + f(S)) / w(S) = α(S)
		if !next.Less(lambda) {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: Dinkelbach stalled at λ=%v (next=%v)", lambda, next)
		}
		lambda = next
	}
}
