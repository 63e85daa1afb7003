package maxflow

import "repro/internal/numeric"

// edmondsKarp computes a maximum flow by shortest augmenting paths — the
// textbook baseline the ablation compares the structured solvers against.
// O(VE²) in general; on the shallow networks of the bottleneck reduction it
// is competitive for small instances and falls behind Dinic as paths
// multiply.
func (nw *Network) edmondsKarp() numeric.Rat {
	total := numeric.Zero
	parent := make([]int, nw.n) // arc id used to reach each node
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[nw.s] = -2
		queue := []int{nw.s}
		found := false
	bfs:
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, id := range nw.adj[u] {
				v := nw.arcs[id].to
				if parent[v] != -1 || !nw.hasResidual(id) {
					continue
				}
				parent[v] = id
				if v == nw.t {
					found = true
					break bfs
				}
				queue = append(queue, v)
			}
		}
		if !found {
			return total
		}
		// Bottleneck along the path, then augment.
		aug := numeric.Rat{}
		first := true
		for v := nw.t; v != nw.s; {
			id := parent[v]
			res := nw.residual(id)
			if first || res.Less(aug) {
				aug = res
				first = false
			}
			v = nw.arcs[id^1].to
		}
		for v := nw.t; v != nw.s; {
			id := parent[v]
			nw.push(id, aug)
			v = nw.arcs[id^1].to
		}
		total = total.Add(aug)
	}
}
