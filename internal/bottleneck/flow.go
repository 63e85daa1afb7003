package bottleneck

import (
	"context"

	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
)

// flowOracle solves the λ-subproblem by max-flow min-cut on the standard
// parametric network (DESIGN.md §3.1):
//
//	source → L(v) with capacity λ·w_v        (pay to exclude v from S)
//	R(u)   → sink with capacity w_u          (pay if u ∈ Γ(S))
//	L(v)   → R(u) with capacity ∞ for u ∈ Γ(v)
//
// A finite cut keeps a set A of L-vertices on the source side and must then
// cut the sink arcs of all R(u), u ∈ Γ(A), so
// mincut = λ·w(V) + min_A [w(Γ(A)) − λ·w(A)]. The maximal source side of
// the min cut restricted to L-vertices is the maximal minimizer.
//
// Only the source arcs depend on λ, so the oracle builds its network on the
// first λ and afterwards replaces just those n capacities: every solve sees
// exactly the network a rebuild would produce. It also memoizes the last λ's
// (value, maximal minimizer), since Dinkelbach calls value(λ*) and then
// maximal(λ*). The network and the memo make a single oracle unsafe for
// concurrent use; as with dpOracle, every construction site builds one
// oracle per decomposition stage, used by one goroutine.
type flowOracle struct {
	g *graph.Graph
	// ctx carries the obs span of the enclosing decomposition stage, if
	// any, so each max-flow solve is recorded as a child span. The oracle
	// interface is ctx-free (Dinkelbach checks cancellation between
	// iterations itself), hence the stored context.
	ctx context.Context

	nw  *maxflow.Network // the λ-network, built on the first solve
	src []int            // edge ids of the source arcs, by vertex

	memoOK     bool
	memoLambda numeric.Rat
	memoVal    numeric.Rat
	memoS      []int
}

func (o *flowOracle) solveCtx() context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	return context.Background()
}

// solve solves the λ-network, returning the subproblem value and the
// maximal minimizer. The minimizer stays owned by the memo.
func (o *flowOracle) solve(lambda numeric.Rat) (numeric.Rat, []int) {
	if o.memoOK && o.memoLambda.Equal(lambda) {
		return o.memoVal, o.memoS
	}
	n := o.g.N()
	if o.nw == nil {
		s, t := 2*n, 2*n+1
		// n source arcs, n sink arcs and one ∞ arc per neighbor: Σ deg = 2m.
		o.nw = maxflow.NewNetwork(2*n+2, s, t, 2*n+2*o.g.M())
		o.src = make([]int, n)
		for v := 0; v < n; v++ {
			o.src[v] = o.nw.AddEdge(s, v, maxflow.Finite(lambda.Mul(o.g.Weight(v))))
			o.nw.AddEdge(n+v, t, maxflow.Finite(o.g.Weight(v)))
			for _, u := range o.g.Neighbors(v) {
				o.nw.AddEdge(v, n+u, maxflow.Inf)
			}
		}
	} else {
		for v, id := range o.src {
			o.nw.SetCapacity(id, maxflow.Finite(lambda.Mul(o.g.Weight(v))))
		}
	}
	flowVal := o.nw.SolveCtx(o.solveCtx(), maxflow.Dinic)
	val := flowVal.Sub(lambda.Mul(o.g.TotalWeight()))
	side := o.nw.MinCutSourceSide(true)
	var S []int
	for v := 0; v < n; v++ {
		if side[v] {
			S = append(S, v)
		}
	}
	o.memoOK, o.memoLambda, o.memoVal, o.memoS = true, lambda, val, S
	return val, S
}

func (o *flowOracle) value(lambda numeric.Rat) (numeric.Rat, numeric.Rat) {
	val, S := o.solve(lambda)
	return val, o.g.WeightOf(S)
}

// maximal hands the memoized minimizer to the caller and drops it from the
// memo, so the oracle never shares a slice it still owns.
func (o *flowOracle) maximal(lambda numeric.Rat) []int {
	_, S := o.solve(lambda)
	o.memoOK, o.memoS = false, nil
	return S
}
