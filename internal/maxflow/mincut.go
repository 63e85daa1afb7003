package maxflow

// Minimum-cut extraction. After a max flow has been computed the min cuts
// form a lattice; the two extreme elements matter to the bottleneck solver:
//
//   - the minimal source side (reachable from s in the residual graph), and
//   - the maximal source side (complement of the nodes that can still reach
//     t in the residual graph), whose left-vertex restriction is the union
//     of all minimizers — exactly the maximal bottleneck of Definition 2.

// MinCutSourceSide returns, after solving, the indicator of the source side
// of a minimum cut. With maximal == false it returns the minimal source
// side; with maximal == true, the maximal one. The slice belongs to the
// network: it holds the side until the next solve, Reset or
// MinCutSourceSide call for the same side, so a caller that keeps a side
// past those copies it.
func (nw *Network) MinCutSourceSide(maximal bool) []bool {
	if !nw.solved {
		panic("maxflow: MinCutSourceSide before solving")
	}
	k := 0
	if maximal {
		k = 1
	}
	if cap(nw.sides[k]) < nw.n {
		nw.sides[k] = make([]bool, nw.n)
	}
	side := nw.sides[k][:nw.n]
	nw.search.size(nw.n)
	stack := nw.search.queue[:0]
	if !maximal {
		// Forward reachability from s over positive residual arcs.
		clear(side)
		side[nw.s] = true
		stack = append(stack, nw.s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range nw.adj[u] {
				if v := nw.arcs[id].to; !side[v] && nw.hasResidual(id) {
					side[v] = true
					stack = append(stack, v)
				}
			}
		}
		return side
	}
	// Backward reachability to t: v can reach t iff some residual arc
	// v → x exists with x already known to reach t. Walk the reverse
	// residual graph from t: arc id = (u → x) with residual > 0 gives the
	// reverse step x → u, discovered by scanning x's adjacency, where the
	// paired arc id^1 = (x → u) lets us recover u and residual(id). The
	// side is the complement of what the walk reaches, so the walk clears
	// it from all-true.
	for v := range side {
		side[v] = true
	}
	side[nw.t] = false
	stack = append(stack, nw.t)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range nw.adj[x] {
			u := nw.arcs[id].to // arc id is x → u, so id^1 is u → x
			if side[u] && nw.hasResidual(id^1) {
				side[u] = false
				stack = append(stack, u)
			}
		}
	}
	return side
}
