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
// side; with maximal == true, the maximal one.
func (nw *Network) MinCutSourceSide(maximal bool) []bool {
	if !nw.solved {
		panic("maxflow: MinCutSourceSide before solving")
	}
	if !maximal {
		// Forward reachability from s over positive residual arcs.
		side := make([]bool, nw.n)
		side[nw.s] = true
		stack := []int{nw.s}
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
	// paired arc id^1 = (x → u) lets us recover u and residual(id).
	reachT := make([]bool, nw.n)
	reachT[nw.t] = true
	stack := []int{nw.t}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range nw.adj[x] {
			u := nw.arcs[id].to // arc id is x → u, so id^1 is u → x
			if !reachT[u] && nw.hasResidual(id^1) {
				reachT[u] = true
				stack = append(stack, u)
			}
		}
	}
	side := make([]bool, nw.n)
	for v := range side {
		side[v] = !reachT[v]
	}
	return side
}
