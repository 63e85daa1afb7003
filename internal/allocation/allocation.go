// Package allocation implements the BD Allocation Mechanism (Definition 5
// of the paper): given the bottleneck decomposition of a weighted graph, it
// constructs the fixed-point resource allocation of the proportional
// response dynamics via one bipartite max-flow per bottleneck pair.
//
// For a pair (B_i, C_i) with α_i < 1 the flow network routes each u ∈ B_i's
// whole endowment w_u across the graph edges between B_i and C_i into
// demands w_v/α_i at v ∈ C_i; the allocation is x_uv = f_uv and
// x_vu = α_i·f_uv. For the final self-pair (α_k = 1) the same construction
// runs on the bipartite double cover of the induced subgraph. All other
// edges carry zero. The bottleneck property guarantees these flows saturate;
// the package audits that exactly and loudly.
package allocation

import (
	"fmt"

	"repro/internal/bottleneck"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
)

// Allocation is a resource allocation X = {x_uv}: x_uv is the amount vertex
// u sends to its neighbor v. It is stored sparsely; absent pairs are zero.
type Allocation struct {
	n int
	x map[[2]int]numeric.Rat
}

// newAllocation returns an empty allocation over n vertices.
func newAllocation(n int) *Allocation {
	return &Allocation{n: n, x: make(map[[2]int]numeric.Rat)}
}

// New returns an empty allocation over n vertices. It is the constructor for
// mechanism backends (internal/mechanism) that build allocations directly
// instead of going through the BD pipeline of Compute; transfers are
// accumulated with Add.
func New(n int) *Allocation { return newAllocation(n) }

// N returns the number of vertices.
func (a *Allocation) N() int { return a.n }

// Get returns x_uv.
func (a *Allocation) Get(u, v int) numeric.Rat { return a.x[[2]int{u, v}] }

// set records x_uv, dropping explicit zeros.
func (a *Allocation) set(u, v int, val numeric.Rat) {
	if val.Sign() < 0 {
		panic(fmt.Sprintf("allocation: negative transfer x[%d][%d] = %v", u, v, val))
	}
	if val.IsZero() {
		delete(a.x, [2]int{u, v})
		return
	}
	a.x[[2]int{u, v}] = val
}

// Add accumulates onto x_uv (used by the dynamics simulator as well).
func (a *Allocation) Add(u, v int, val numeric.Rat) {
	a.set(u, v, a.Get(u, v).Add(val))
}

// Utility returns U_v(X) = Σ_u x_uv, the total resource v receives.
func (a *Allocation) Utility(v int) numeric.Rat {
	total := numeric.Zero
	for key, val := range a.x {
		if key[1] == v {
			total = total.Add(val)
		}
	}
	return total
}

// Utilities returns all utilities in one pass.
func (a *Allocation) Utilities() []numeric.Rat {
	out := make([]numeric.Rat, a.n)
	for key, val := range a.x {
		out[key[1]] = out[key[1]].Add(val)
	}
	return out
}

// SentBy returns Σ_v x_uv, the total resource u gives away.
func (a *Allocation) SentBy(u int) numeric.Rat {
	total := numeric.Zero
	for key, val := range a.x {
		if key[0] == u {
			total = total.Add(val)
		}
	}
	return total
}

// Support returns the number of non-zero transfers.
func (a *Allocation) Support() int { return len(a.x) }

// Compute runs the BD Allocation Mechanism for g under decomposition d.
func Compute(g *graph.Graph, d *bottleneck.Decomposition) (*Allocation, error) {
	if d.N() != g.N() {
		return nil, fmt.Errorf("allocation: decomposition covers %d of %d vertices", d.N(), g.N())
	}
	a := newAllocation(g.N())
	for i, p := range d.Pairs {
		var err error
		switch {
		case p.Alpha.IsZero():
			// Isolated-vertex pair: nothing to exchange.
		case p.Alpha.Equal(numeric.One):
			err = a.computeSelfPair(g, p)
		default:
			err = a.computeCrossPair(g, p)
		}
		if err != nil {
			return nil, fmt.Errorf("allocation: pair %d: %w", i, err)
		}
	}
	return a, nil
}

// computeCrossPair handles (B_i, C_i) with 0 < α_i < 1.
func (a *Allocation) computeCrossPair(g *graph.Graph, p bottleneck.Pair) error {
	nb, nc := len(p.B), len(p.C)
	// Node layout: 0..nb-1 = B members, nb..nb+nc-1 = C members, then s, t.
	s, t := nb+nc, nb+nc+1
	// nb source arcs, nc sink arcs, and at most deg(u) ∞ arcs per u ∈ B.
	edges := nb + nc
	for _, u := range p.B {
		edges += g.Degree(u)
	}
	nw := maxflow.NewNetwork(nb+nc+2, s, t, edges)
	cIndex := make(map[int]int, nc)
	for j, v := range p.C {
		cIndex[v] = nb + j
	}
	type arcRef struct{ u, v, id int }
	var arcs []arcRef
	supply := numeric.Zero
	for iu, u := range p.B {
		nw.AddEdge(s, iu, maxflow.Finite(g.Weight(u)))
		supply = supply.Add(g.Weight(u))
		for _, v := range g.Neighbors(u) {
			if j, ok := cIndex[v]; ok {
				arcs = append(arcs, arcRef{u: u, v: v, id: nw.AddEdge(iu, j, maxflow.Inf)})
			}
		}
	}
	for j, v := range p.C {
		nw.AddEdge(nb+j, t, maxflow.Finite(g.Weight(v).Div(p.Alpha)))
	}
	flow := nw.Solve(maxflow.Dinic)
	if !flow.Equal(supply) {
		return fmt.Errorf("flow %v does not saturate supply %v (bottleneck property violated?)", flow, supply)
	}
	for _, ar := range arcs {
		f := nw.Flow(ar.id)
		if f.IsZero() {
			continue
		}
		a.set(ar.u, ar.v, f)              // x_uv = f_uv
		a.set(ar.v, ar.u, p.Alpha.Mul(f)) // x_vu = α·f_uv
	}
	return nil
}

// computeSelfPair handles the final pair with B_k = C_k and α_k = 1 via the
// bipartite double cover of the induced subgraph.
//
// The raw double-cover max flow is NOT canonical: Definition 5 admits any
// maximal flow, but only the symmetric ones (x_uv = x_vu) are fixed points
// of the proportional response dynamics — on the unit triangle the directed
// 3-cycle flow satisfies the definition yet oscillates under eq. (1), and
// Lemma 9 fails for it. Symmetrizing, x_uv = (f_{uv'} + f_{vu'})/2, keeps
// non-negativity, support, and the row sums Σ_v x_uv = w_u (each row sum is
// the mean of a source-side and a sink-side saturation), and yields the
// equilibrium allocation the paper works with.
func (a *Allocation) computeSelfPair(g *graph.Graph, p bottleneck.Pair) error {
	m := len(p.B)
	// Node layout: 0..m-1 left copies, m..2m-1 right copies, then s, t.
	s, t := 2*m, 2*m+1
	// 2m source and sink arcs, and at most deg(u) ∞ arcs per u ∈ B.
	edges := 2 * m
	for _, u := range p.B {
		edges += g.Degree(u)
	}
	nw := maxflow.NewNetwork(2*m+2, s, t, edges)
	index := make(map[int]int, m)
	for i, v := range p.B {
		index[v] = i
	}
	type arcRef struct{ u, v, id int }
	var arcs []arcRef
	supply := numeric.Zero
	for i, u := range p.B {
		nw.AddEdge(s, i, maxflow.Finite(g.Weight(u)))
		nw.AddEdge(m+i, t, maxflow.Finite(g.Weight(u)))
		supply = supply.Add(g.Weight(u))
		for _, v := range g.Neighbors(u) {
			if j, ok := index[v]; ok {
				arcs = append(arcs, arcRef{u: u, v: v, id: nw.AddEdge(i, m+j, maxflow.Inf)})
			}
		}
	}
	flow := nw.Solve(maxflow.Dinic)
	if !flow.Equal(supply) {
		return fmt.Errorf("double-cover flow %v does not saturate supply %v", flow, supply)
	}
	raw := make(map[[2]int]numeric.Rat, len(arcs))
	for _, ar := range arcs {
		raw[[2]int{ar.u, ar.v}] = nw.Flow(ar.id)
	}
	for _, ar := range arcs {
		f := raw[[2]int{ar.u, ar.v}].Add(raw[[2]int{ar.v, ar.u}]).DivInt(2)
		if !f.IsZero() {
			a.set(ar.u, ar.v, f) // x_uv = (f_{uv'} + f_{vu'})/2
		}
	}
	return nil
}

// Audit cross-checks an allocation produced by Compute against the theory:
//
//   - feasibility: every positive transfer runs along a graph edge and every
//     agent in a pair with α > 0 sends out exactly w_v,
//   - Proposition 6: U_v = w_v·α_v for B class, w_v/α_v for C class.
//
// It returns the first discrepancy.
func Audit(g *graph.Graph, d *bottleneck.Decomposition, a *Allocation) error {
	for key, val := range a.x {
		if val.Sign() <= 0 {
			return fmt.Errorf("allocation: non-positive stored transfer %v", val)
		}
		if !g.HasEdge(key[0], key[1]) {
			return fmt.Errorf("allocation: transfer along non-edge (%d,%d)", key[0], key[1])
		}
	}
	// Self-pair transfers must be symmetric (proportional-response fixed
	// point; see computeSelfPair).
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if d.ClassOf(u) == bottleneck.ClassBoth && d.ClassOf(v) == bottleneck.ClassBoth &&
			d.PairIndexOf(u) == d.PairIndexOf(v) {
			if !a.Get(u, v).Equal(a.Get(v, u)) {
				return fmt.Errorf("allocation: asymmetric self-pair transfer on (%d,%d): %v vs %v",
					u, v, a.Get(u, v), a.Get(v, u))
			}
		}
	}
	utils := a.Utilities()
	for v := 0; v < g.N(); v++ {
		if d.AlphaOf(v).IsZero() {
			if !utils[v].IsZero() {
				return fmt.Errorf("allocation: isolated vertex %d has utility %v", v, utils[v])
			}
			continue
		}
		if got := a.SentBy(v); !got.Equal(g.Weight(v)) {
			return fmt.Errorf("allocation: vertex %d sends %v, owns %v", v, got, g.Weight(v))
		}
		if want := d.Utility(g, v); !utils[v].Equal(want) {
			return fmt.Errorf("allocation: U_%d = %v, Proposition 6 says %v", v, utils[v], want)
		}
	}
	return nil
}
