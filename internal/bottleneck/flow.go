package bottleneck

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
)

// lambdaNet is the parametric λ-network of one decomposition (DESIGN.md
// §3.1), built over the graph g the decomposition runs on:
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
// Every flow stage of the decomposition solves on this one network. A
// stage keeps its own vertices' arcs and gives every arc at a vertex an
// earlier stage removed — its source and sink arcs and the ∞ arcs into and
// out of it — capacity 0. A zero arc adds nothing to the fixed-width
// Dinic's common denominator or capacity sum, nor to the rational ∞
// substitute, and no solver ever crosses it; the live arcs keep the
// relative adjacency order of a network built on the stage graph alone.
// So every solve takes that network's levels, augmenting paths and pushes,
// in the same arithmetic, and the maximal source side restricted to the
// stage's L-vertices is the same set. The per-stage construction is the
// referee (flowref_test.go).
//
// The network lives in the decomposition's pooled dpScratch and is rebuilt
// there for each decomposition: maxflow.Network.Reset keeps the arcs,
// adjacency lists, cells and search state of whatever network the scratch
// held, and the rebuild adds the arcs in the order a fresh network would,
// so arc ids, pushes, flows and cuts are a fresh network's.
type lambdaNet struct {
	g  *graph.Graph
	nw maxflow.Network
	// first[v] is the edge id of source → L(v); R(v) → sink is first[v]+2
	// and L(v) → R(Γ(v)[j]) is first[v]+4+2j, the order AddEdge built them.
	first []int
	gone  []bool // vertices whose arcs are zero
}

// lambdaNet rebuilds the scratch's λ-network over g and returns it; the
// network is the scratch's, valid until its next rebuild.
func (sc *dpScratch) lambdaNet(g *graph.Graph) *lambdaNet {
	net := &sc.net
	n := g.N()
	s, t := 2*n, 2*n+1
	zero := maxflow.Finite(numeric.Zero)
	// n source arcs, n sink arcs and one ∞ arc per neighbor: Σ deg = 2m.
	net.g = g
	net.nw.Reset(2*n+2, s, t, 2*n+2*g.M())
	net.first = resize(net.first, n)
	net.gone = resize(net.gone, n)
	clear(net.gone)
	for v := 0; v < n; v++ {
		net.first[v] = net.nw.AddEdge(s, v, zero)
		net.nw.AddEdge(n+v, t, maxflow.Finite(g.Weight(v)))
		for _, u := range g.Neighbors(v) {
			net.nw.AddEdge(v, n+u, maxflow.Inf)
		}
	}
	return net
}

// keep zeroes the arcs of every vertex outside live (sorted) that are not
// zero yet. Stages only ever remove vertices, so a zeroed arc stays zero.
func (net *lambdaNet) keep(live []int) {
	zero := maxflow.Finite(numeric.Zero)
	for v, i := 0, 0; v < len(net.gone); v++ {
		if i < len(live) && live[i] == v {
			i++
			continue
		}
		if net.gone[v] {
			continue
		}
		net.gone[v] = true
		id := net.first[v]
		net.nw.SetCapacity(id, zero)
		net.nw.SetCapacity(id+2, zero)
		for j, u := range net.g.Neighbors(v) {
			net.nw.SetCapacity(id+4+2*j, zero)
			k := sort.SearchInts(net.g.Neighbors(u), v)
			net.nw.SetCapacity(net.first[u]+4+2*k, zero)
		}
	}
}

// flowOracle solves one stage's λ-subproblem by max-flow min-cut on the
// decomposition's λ-network. Only the source arcs depend on λ, so each
// solve replaces just the stage's source capacities. The oracle also
// memoizes the last λ's (value, maximal minimizer), since Dinkelbach calls
// value(λ*) and then maximal(λ*). The network and the memo make a single
// oracle unsafe for concurrent use; as with dpOracle, every construction
// site builds one oracle per decomposition stage, used by one goroutine.
type flowOracle struct {
	net *lambdaNet
	// g is the stage graph, verts[i] the network vertex of its vertex i
	// (ascending) and wV its total weight.
	g     *graph.Graph
	verts []int
	wV    numeric.Rat
	// ctx carries the obs span of the enclosing decomposition stage, if
	// any, so each max-flow solve is recorded as a child span. The oracle
	// interface is ctx-free (Dinkelbach checks cancellation between
	// iterations itself), hence the stored context.
	ctx context.Context

	memoOK     bool
	memoLambda numeric.Rat
	memoVal    numeric.Rat
	memoS      []int
}

// newFlowOracle binds the stage graph sub, whose vertex i is verts[i] of
// net's graph, to net and zeroes the arcs of every other vertex.
func newFlowOracle(ctx context.Context, net *lambdaNet, sub *graph.Graph, verts []int) *flowOracle {
	net.keep(verts)
	return &flowOracle{net: net, g: sub, verts: verts, wV: sub.TotalWeight(), ctx: ctx}
}

// graphFlowOracle is the flow oracle of the whole graph g, on the λ-network
// of g rebuilt in sc.
func graphFlowOracle(ctx context.Context, g *graph.Graph, sc *dpScratch) *flowOracle {
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	return newFlowOracle(ctx, sc.lambdaNet(g), g, all)
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
	net := o.net
	for i, v := range o.verts {
		net.nw.SetCapacity(net.first[v], maxflow.Finite(lambda.Mul(o.g.Weight(i))))
	}
	flowVal := net.nw.SolveCtx(o.solveCtx(), maxflow.Dinic)
	val := flowVal.Sub(lambda.Mul(o.wV))
	side := net.nw.MinCutSourceSide(true)
	var S []int
	for i, v := range o.verts {
		if side[v] {
			S = append(S, i)
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
