package maxflow

import (
	"math/big"

	"repro/internal/numeric"
)

// Dinic's algorithm, on fixed-width cells or on rationals.
//
// For finite capacities c_i = n_i/d_i, let L = lcm(d_i). The fixed-width
// solve runs Dinic on the integers n_i·(L/d_i) and gives every Inf arc
// exactly L·(1 + Σ c_i), the scaled form of finiteBound's substitute.
// Scaling by L > 0 preserves every comparison Dinic makes, so one traversal
// serves both arithmetics: the level graph and the path search test arcs
// with hasResidual alone, and the arithmetic enters only at the augment.
// The integer run therefore takes the same levels, augmenting paths and
// pushes as the rational one: its flows are L times the rational flows and
// its min-cut sides are the same.
//
// admit accepts a network exactly when (1+k)·L·(1 + Σ c_i) < 2^FixedBits,
// where k counts the Inf arcs leaving the source (the networks of this
// repository have none). Every capacity, flow, residual and the flow value
// is then at most that bound, so the adds need no checks. The scaled
// capacities are formed in int64 parts when every part and L fit int64, and
// in math/big otherwise; zero capacities add nothing to L or to the sum.

// fixedCells holds the integer state of the last fixed-width solve.
type fixedCells struct {
	scale numeric.Int128   // L, the common denominator
	cap   []numeric.Int128 // scaled capacity per arc, 0 on reverse arcs
	res   []numeric.Int128 // residual capacity per arc
}

// admit fills the cells for nw's current capacities, or returns false when
// the network is past the bound and must run on rationals.
func (c *fixedCells) admit(nw *Network) bool {
	m := len(nw.arcs)
	if cap(c.cap) < m {
		c.cap, c.res = make([]numeric.Int128, m), make([]numeric.Int128, m)
	}
	c.cap, c.res = c.cap[:m], c.res[:m]
	if !c.scaleInt64(nw) && !c.scaleBig(nw) {
		return false
	}
	// Every scaled capacity is below 2^FixedBits, so the sum wraps to a
	// negative value exactly when it reaches 2^127.
	inf, k := c.scale, uint64(1)
	for i := 0; i < m; i += 2 {
		switch {
		case !nw.arcs[i].inf:
			if inf = inf.Add(c.cap[i]); inf.IsNeg() {
				return false
			}
		case nw.arcs[i+1].to == nw.s:
			k++
		}
	}
	if _, ok := inf.MulBelow(k, numeric.FixedBits); !ok {
		return false
	}
	for i := 0; i < m; i += 2 {
		if nw.arcs[i].inf {
			c.cap[i] = inf
		}
		c.res[i] = c.cap[i]
		c.cap[i+1], c.res[i+1] = numeric.Int128{}, numeric.Int128{}
		nw.arcs[i].open, nw.arcs[i+1].open = c.res[i].Sign() > 0, false
	}
	return true
}

// scaleInt64 sets the scale L and every finite arc's scaled capacity
// n_i·(L/d_i) when each capacity's parts and L fit int64, and returns false
// otherwise.
func (c *fixedCells) scaleInt64(nw *Network) bool {
	l := int64(1)
	for i := 0; i < len(nw.arcs); i += 2 {
		if a := &nw.arcs[i]; !a.inf {
			_, d, ok := a.cap.Int64Parts()
			if !ok {
				return false
			}
			if l, ok = numeric.LcmInt64(l, d); !ok {
				return false
			}
		}
	}
	for i := 0; i < len(nw.arcs); i += 2 {
		if a := &nw.arcs[i]; !a.inf {
			num, d, _ := a.cap.Int64Parts()
			// 0 ≤ num < 2^63 and L/d < 2^63: the product is below 2^126.
			c.cap[i] = numeric.Int128Of(num).Mul(uint64(l / d))
		}
	}
	c.scale = numeric.Int128Of(l)
	return true
}

// scaleBig is scaleInt64 in math/big. It returns false as soon as L or a
// scaled capacity reaches 2^FixedBits, which puts the bound past it too.
func (c *fixedCells) scaleBig(nw *Network) bool {
	var num, den, g big.Int
	l := big.NewInt(1)
	for i := 0; i < len(nw.arcs); i += 2 {
		if a := &nw.arcs[i]; !a.inf {
			a.cap.BigParts(&num, &den)
			g.GCD(nil, nil, l, &den)
			if l.Mul(l, den.Quo(&den, &g)); l.BitLen() > numeric.FixedBits {
				return false
			}
		}
	}
	for i := 0; i < len(nw.arcs); i += 2 {
		if a := &nw.arcs[i]; !a.inf {
			a.cap.BigParts(&num, &den)
			if num.Mul(&num, den.Quo(l, &den)); num.BitLen() > numeric.FixedBits {
				return false
			}
			c.cap[i], _ = numeric.Int128OfBig(&num)
		}
	}
	c.scale, _ = numeric.Int128OfBig(l)
	return true
}

// rat converts a value in units of 1/L to a canonical Rat.
func (c *fixedCells) rat(x numeric.Int128) numeric.Rat {
	return numeric.FromInt128(x, c.scale)
}

// flow returns the flow on arc id in units of 1/L.
func (c *fixedCells) flow(id int) numeric.Int128 { return c.cap[id].Sub(c.res[id]) }

// search is Dinic's traversal state, reused across solves and rebuilds of
// one network. The BFS queue and the augmenting path share one buffer: a
// phase's paths are searched after its BFS, and the next BFS after its
// last path. The min-cut walks use it as their stack after a solve.
type search struct {
	level, iter []int
	queue, path []int // the path holds its arcs, from s
}

// size fits the state to n nodes, reallocating only when n exceeds its
// capacity. A BFS enqueues each node once, a path visits each at most once
// and a cut walk stacks each once, so the shared buffer never outgrows n.
func (sr *search) size(n int) {
	if cap(sr.level) < n {
		sr.level, sr.iter, sr.queue = make([]int, n), make([]int, n), make([]int, 0, n)
	}
	sr.level, sr.iter = sr.level[:n], sr.iter[:n]
	sr.path = sr.queue
}

// dinic computes a maximum flow by repeated blocking flows on the level
// graph, in the arithmetic Solve admitted. With exact arithmetic every
// augmentation strictly increases the flow, and the usual O(V²E) phase
// bound applies.
func (nw *Network) dinic() numeric.Rat {
	sr := &nw.search
	sr.size(nw.n)
	var fixed numeric.Int128
	total := numeric.Zero
	for nw.levelGraph() {
		clear(sr.iter)
		for nw.augmentingPath() {
			if nw.fixed {
				fixed = fixed.Add(nw.augmentFixed())
			} else {
				total = total.Add(nw.augmentRat())
			}
		}
	}
	if nw.fixed {
		return nw.cells.rat(fixed)
	}
	return total
}

// levelGraph levels the nodes by BFS distance from s over arcs with
// residual capacity and reports whether t is reached.
func (nw *Network) levelGraph() bool {
	level := nw.search.level
	for i := range level {
		level[i] = -1
	}
	level[nw.s] = 0
	queue := append(nw.search.queue[:0], nw.s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range nw.adj[u] {
			if v := nw.arcs[id].to; level[v] == -1 && nw.hasResidual(id) {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level[nw.t] != -1
}

// augmentingPath searches the level graph depth-first from s for t, each
// node resuming at its current arc, and leaves the path's arcs in
// search.path. A dead end leaves the level graph and its parent moves on to
// its next arc; the search reports false once s is a dead end.
func (nw *Network) augmentingPath() bool {
	sr := &nw.search
	path, u := sr.path[:0], nw.s
	for u != nw.t {
		adj, it := nw.adj[u], sr.iter[u]
		for it < len(adj) && (sr.level[nw.arcs[adj[it]].to] != sr.level[u]+1 || !nw.hasResidual(adj[it])) {
			it++
		}
		if sr.iter[u] = it; it < len(adj) {
			path = append(path, adj[it])
			u = nw.arcs[adj[it]].to
			continue
		}
		sr.level[u] = -1 // dead end; prune
		if len(path) == 0 {
			return false
		}
		id := path[len(path)-1]
		path = path[:len(path)-1]
		u = nw.arcs[id^1].to
		sr.iter[u]++
	}
	sr.path = path
	return true
}

// augmentFixed pushes the bottleneck of search.path on the cells and
// returns it. The pushes run from the sink end back, the order in which a
// recursive search pushes as it unwinds. The path's first arc leaves s, so
// the source's capacity never binds the bottleneck.
func (nw *Network) augmentFixed() numeric.Int128 {
	path, res := nw.search.path, nw.cells.res
	f := res[path[0]]
	for _, id := range path[1:] {
		if res[id].Less(f) {
			f = res[id]
		}
	}
	for k := len(path) - 1; k >= 0; k-- {
		id := path[k]
		nw.strike()
		res[id], res[id^1] = res[id].Sub(f), res[id^1].Add(f)
		nw.arcs[id].open, nw.arcs[id^1].open = res[id].Sign() > 0, true
		nw.pushes++
	}
	return f
}

// augmentRat is augmentFixed on rationals.
func (nw *Network) augmentRat() numeric.Rat {
	path := nw.search.path
	f := nw.residual(path[0])
	for _, id := range path[1:] {
		f = f.Min(nw.residual(id))
	}
	for k := len(path) - 1; k >= 0; k-- {
		nw.push(path[k], f)
	}
	return f
}
