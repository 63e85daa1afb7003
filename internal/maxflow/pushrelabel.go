package maxflow

import "repro/internal/numeric"

// pushRelabel computes a maximum flow with the FIFO push–relabel algorithm.
// It is the ablation partner of dinic (experiment E12): same exact
// arithmetic, different combinatorial strategy.
func (nw *Network) pushRelabel() numeric.Rat {
	n := nw.n
	height := make([]int, n)
	excess := make([]numeric.Rat, n)
	inQueue := make([]bool, n)
	queue := make([]int, 0, n)

	enqueue := func(v int) {
		if !inQueue[v] && v != nw.s && v != nw.t && excess[v].Sign() > 0 {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}

	// Saturate all source arcs.
	height[nw.s] = n
	for _, id := range nw.adj[nw.s] {
		if id%2 != 0 {
			continue
		}
		c := nw.arcs[id].cap
		if c.Sign() <= 0 {
			continue
		}
		nw.push(id, c)
		excess[nw.arcs[id].to] = excess[nw.arcs[id].to].Add(c)
		excess[nw.s] = excess[nw.s].Sub(c)
		enqueue(nw.arcs[id].to)
	}

	discharge := func(u int) {
		for excess[u].Sign() > 0 {
			minH := 2*n + 1
			pushedAny := false
			for _, id := range nw.adj[u] {
				if !nw.hasResidual(id) {
					continue
				}
				v := nw.arcs[id].to
				if height[u] == height[v]+1 {
					amt := excess[u].Min(nw.residual(id))
					nw.push(id, amt)
					excess[u] = excess[u].Sub(amt)
					excess[v] = excess[v].Add(amt)
					enqueue(v)
					pushedAny = true
					if excess[u].Sign() == 0 {
						return
					}
				} else if height[v]+1 < minH {
					minH = height[v] + 1
				}
			}
			if !pushedAny {
				if minH > 2*n {
					// No admissible or relabelable arc: excess is stuck,
					// which cannot happen with a correct residual graph.
					return
				}
				height[u] = minH
			}
		}
	}

	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		discharge(u)
		enqueue(u) // re-queue if still active (height changed)
	}
	return excess[nw.t]
}
