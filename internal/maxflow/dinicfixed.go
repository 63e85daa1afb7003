package maxflow

import "repro/internal/numeric"

// Fixed-width Dinic.
//
// For finite capacities c_i = n_i/d_i, let L = lcm(d_i). The kernel runs
// Dinic on the integers n_i·(L/d_i) and gives every Inf arc exactly
// L·(1 + Σ c_i), the scaled form of finiteBound's substitute. Scaling by
// L > 0 preserves every comparison Dinic makes — residual > 0 in the BFS,
// min(limit, residual) in the DFS, pushed > 0 — so the integer run takes the
// same levels, augmenting paths and pushes as the rational one: its flows
// are L times the rational flows and its min-cut sides are the same. The
// traversal below therefore mirrors dinic() step for step; an early exit or
// a reordering would change the flows (not the value).
//
// admit accepts a network when every finite capacity's parts fit int64, L
// fits int64, and (1+k)·L·(1 + Σ c_i) < 2^numeric.FixedBits, where k counts
// the Inf arcs leaving the source (the networks of this repository have
// none). Every capacity, flow, residual, DFS limit and the flow value is then
// at most that bound, so the adds need no checks.

// fixedCells holds the integer state of the last fixed-width solve.
type fixedCells struct {
	scale int64            // L, the common denominator
	cap   []numeric.Int128 // scaled capacity per arc, 0 on reverse arcs
	res   []numeric.Int128 // residual capacity per arc
	// Dinic scratch, reused across solves of one network.
	level, iter, queue []int
}

// admit fills the cells for nw's current capacities, or returns false when
// the network is past the bound and must run on rationals.
func (c *fixedCells) admit(nw *Network) bool {
	l, k := int64(1), uint64(1)
	for i := 0; i < len(nw.arcs); i += 2 {
		a := &nw.arcs[i]
		if a.inf {
			if nw.arcs[i+1].to == nw.s {
				k++
			}
			continue
		}
		_, d, ok := a.cap.Int64Parts()
		if !ok {
			return false
		}
		if l, ok = numeric.LcmInt64(l, d); !ok {
			return false
		}
	}
	m := len(nw.arcs)
	if cap(c.cap) < m {
		c.cap, c.res = make([]numeric.Int128, m), make([]numeric.Int128, m)
	}
	c.cap, c.res = c.cap[:m], c.res[:m]
	inf := numeric.Int128Of(l)
	for i := 0; i < m; i += 2 {
		var x numeric.Int128
		if a := &nw.arcs[i]; !a.inf {
			num, d, _ := a.cap.Int64Parts()
			// 0 ≤ num < 2^63 and L/d < 2^63: the product is exact.
			x = numeric.Int128Of(num).Mul(uint64(l / d))
			if inf = inf.Add(x); inf.IsNeg() {
				return false // the sum reached 2^127
			}
		}
		c.cap[i], c.res[i] = x, x
		c.cap[i+1], c.res[i+1] = numeric.Int128{}, numeric.Int128{}
	}
	if _, ok := inf.MulBelow(k, numeric.FixedBits); !ok {
		return false
	}
	for i := 0; i < m; i += 2 {
		if nw.arcs[i].inf {
			c.cap[i], c.res[i] = inf, inf
		}
	}
	c.scale = l
	if len(c.level) != nw.n {
		c.level, c.iter, c.queue = make([]int, nw.n), make([]int, nw.n), make([]int, 0, nw.n)
	}
	return true
}

// rat converts a value in units of 1/L to a canonical Rat.
func (c *fixedCells) rat(x numeric.Int128) numeric.Rat {
	return numeric.FromInt128(x, numeric.Int128Of(c.scale))
}

// flow returns the flow on arc id in units of 1/L.
func (c *fixedCells) flow(id int) numeric.Int128 { return c.cap[id].Sub(c.res[id]) }

// dinicFixed is dinic() on the admitted cells; it returns the flow value in
// units of 1/L.
func (nw *Network) dinicFixed() numeric.Int128 {
	c := &nw.cells
	var total numeric.Int128
	// The source's outgoing capacity bounds any augmentation.
	var limit numeric.Int128
	for _, id := range nw.adj[nw.s] {
		if id%2 == 0 {
			limit = limit.Add(c.cap[id])
		}
	}
	if limit.Sign() == 0 {
		return total
	}
	for nw.bfsFixed() {
		for i := range c.iter {
			c.iter[i] = 0
		}
		for {
			pushed := nw.dfsFixed(nw.s, limit)
			if pushed.Sign() == 0 {
				break
			}
			total = total.Add(pushed)
		}
	}
	return total
}

// bfsFixed builds the level graph over arcs with positive residual.
func (nw *Network) bfsFixed() bool {
	c := &nw.cells
	level := c.level
	for i := range level {
		level[i] = -1
	}
	level[nw.s] = 0
	queue := append(c.queue[:0], nw.s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range nw.adj[u] {
			v := nw.arcs[id].to
			if level[v] == -1 && c.res[id].Sign() > 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level[nw.t] != -1
}

// dfsFixed pushes up to limit units from u toward the sink along the level
// graph and returns the amount pushed.
func (nw *Network) dfsFixed(u int, limit numeric.Int128) numeric.Int128 {
	if u == nw.t {
		return limit
	}
	c := &nw.cells
	for ; c.iter[u] < len(nw.adj[u]); c.iter[u]++ {
		id := nw.adj[u][c.iter[u]]
		v := nw.arcs[id].to
		if c.level[v] != c.level[u]+1 {
			continue
		}
		res := c.res[id]
		if res.Sign() <= 0 {
			continue
		}
		next := limit
		if res.Less(limit) {
			next = res
		}
		if pushed := nw.dfsFixed(v, next); pushed.Sign() > 0 {
			nw.pushFixed(id, pushed)
			return pushed
		}
	}
	c.level[u] = -1 // dead end; prune
	return numeric.Int128{}
}

// pushFixed is push on the cells.
func (nw *Network) pushFixed(id int, f numeric.Int128) {
	nw.strike()
	nw.cells.res[id] = nw.cells.res[id].Sub(f)
	nw.cells.res[id^1] = nw.cells.res[id^1].Add(f)
	nw.pushes++
}
