package bottleneck

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// dpOracle solves the λ-subproblem on graphs whose components are all paths
// or cycles — the only shapes that arise while decomposing the paper's rings
// and split paths — with a three-implicit-state linear dynamic program
// instead of a max-flow. The state tracked is (s_{i-1}, s_i) ∈ {0,1}²,
// whether the previous and current vertex are in S; membership of a vertex
// in Γ(S) is determined by its neighbors, and its charge w_i·[s_{i-1} ∨
// s_{i+1}] is settled as soon as both neighbors are decided.
//
// f_λ separates over components, so the global minimum is the sum of
// per-component minima (each ≤ 0 because ∅ is allowed), and the maximal
// minimizer is the union of per-component maximal minimizers. Per-component
// maximal minimizers are found by membership probes: v belongs to the
// maximal minimizer iff forcing s_v = 1 does not raise the component's
// minimum (minimizers of a submodular function are closed under union).
// dpOracle memoizes the prepared per-component plans for the most recent λ:
// Dinkelbach calls value(λ) and then maximal(λ) at the same λ, and preparing
// a plan costs an O(n) sweep of multiplies. The memo's plans live in the
// oracle's scratch, so a scratch serves one live oracle at a time, and the
// memo makes a single oracle unsafe for concurrent use; every construction
// site builds one oracle per decomposition stage, used by one goroutine.
type dpOracle struct {
	comps []dpComponent
	sc    *dpScratch

	memoOK     bool
	memoLambda numeric.Rat
	memoPlans  []dpPlan
	tally      arithTally // plans built, by arithmetic
}

// dpScratch is the working memory of one evaluation — a decomposition, or
// one split-solver evaluation — reused from λ to λ and from stage to stage
// instead of allocated per pass: the DP passes' cells and plans, and the
// decomposition's λ-network. Every pass writes what it reads and every
// decomposition rebuilds the network, so a scratch carries nothing from one
// use to the next but its capacity. A scratch serves one goroutine and one
// live dpOracle at a time (the oracle's λ memo points into memo), and
// nothing that outlives the evaluation may alias it: the pairs, their B and
// C, the Decomposition and the cached interior transfers are all copied
// out.
type dpScratch struct {
	memo    []numeric.Int128            // cells of a dpOracle's memoized plans
	cells   []numeric.Int128            // cells of a one-off plan: a transfer, a whole-path pass
	plans   []dpPlan                    // a dpOracle's memoized plans
	onePlan dpPlan                      // a one-off plan, in cells
	fixed   dpWork[fixedCell, fixedVal] // the passes' cells on fixed-width plans
	big     dpWork[bigCell, bigVal]     // and on big.Int plans
	members []bool                      // a membership pass's result
	ws      []numeric.Rat               // the split solver's whole-path or endpoint-run weights
	comps   []dpComponent               // the split solver's later-stage components
	marks   []bool                      // vertex marks of a stage's bookkeeping
	net     lambdaNet                   // a decomposition's λ-network
}

// dpWork is the passes' working memory in one arithmetic. The passes hand
// its cells to the plan's methods through a type parameter, which escape
// analysis cannot see through, so they live here, not on the stack.
type dpWork[C, V any] struct {
	dp     [2][2]C   // a value pass's cells
	best   C         // and its best cell
	fwd    [2][2]V   // a membership pass's prefix sweep
	suffix [][2][2]V // its suffix sweep
	min    []V       // its per-vertex minima
	least  V         // and its minimum
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// putScratch returns sc to the pool. It drops the λ-network's graph, so a
// pooled scratch keeps no caller's graph alive; the rest is rebuilt or
// rewritten by its next use, after a panic too.
func putScratch(sc *dpScratch) {
	sc.net.g = nil
	scratchPool.Put(sc)
}

// vertexMarks returns n marks, all false.
func (sc *dpScratch) vertexMarks(n int) []bool {
	sc.marks = resize(sc.marks, n)
	clear(sc.marks)
	return sc.marks
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are whatever s held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dpPlan is a prepared λ-instance for one component: the fixed-width plan
// when the admission bound holds, the big.Int plan otherwise.
type dpPlan struct {
	fixed bool
	fp    fixedPlan
	bp    bigPlan
}

// planFor prepares c's plan at λ — the fixed-width one in buf, which holds
// at least four cells per vertex, when the bound admits it — and counts it
// in tally.
func (c dpComponent) planFor(lambda numeric.Rat, buf []numeric.Int128, tally *arithTally) dpPlan {
	fp, fixed := c.fixedPlanFor(lambda, buf)
	tally.plan(fixed)
	if fixed {
		return dpPlan{fixed: true, fp: fp}
	}
	return dpPlan{bp: c.bigPlanFor(lambda)}
}

// value runs c's value pass on the plan, in its arithmetic, in sc.
func (pl *dpPlan) value(c dpComponent, sc *dpScratch) costW {
	if pl.fixed {
		return valuePass(&pl.fp, c, sc)
	}
	return valuePass(&pl.bp, c, sc)
}

// members runs c's membership pass on the plan, in its arithmetic, in sc;
// the slice is sc's, valid until its next pass.
func (pl *dpPlan) members(c dpComponent, sc *dpScratch) []bool {
	if pl.fixed {
		return membershipPass(&pl.fp, c, sc)
	}
	return membershipPass(&pl.bp, c, sc)
}

// arithTally counts which arithmetic a stretch of DP work ran on. Callers
// fold it into SplitSolverStats under a lock they take anyway; the split
// solver also reports each evaluation's plans on its splitsolver.eval span.
type arithTally struct {
	fixedPlans, bigPlans, wholePaths int
}

func (t *arithTally) plan(fixed bool) {
	if fixed {
		t.fixedPlans++
	} else {
		t.bigPlans++
	}
}

func (t *arithTally) add(u arithTally) {
	t.fixedPlans += u.fixedPlans
	t.bigPlans += u.bigPlans
	t.wholePaths += u.wholePaths
}

// plansFor returns the plans at λ, building them in the scratch's memo
// cells unless the memo holds λ already.
func (o *dpOracle) plansFor(lambda numeric.Rat) []dpPlan {
	if o.memoOK && o.memoLambda.Equal(lambda) {
		return o.memoPlans
	}
	sc := o.sc
	cells := 0
	for _, c := range o.comps {
		cells += 4 * len(c.ws)
	}
	sc.memo = resize(sc.memo, cells)
	sc.plans = resize(sc.plans, len(o.comps))
	buf, plans := sc.memo, sc.plans
	for i, c := range o.comps {
		plans[i] = c.planFor(lambda, buf, &o.tally)
		buf = buf[4*len(c.ws):]
	}
	o.memoOK, o.memoLambda, o.memoPlans = true, lambda, plans
	return plans
}

type dpComponent struct {
	order []int // vertices in path/cycle order (original indices)
	ws    []numeric.Rat
	cycle bool
}

// newDPOracle decomposes g into path/cycle components; it fails if any
// component is neither. The oracle's passes run in sc.
func newDPOracle(g *graph.Graph, sc *dpScratch) (*dpOracle, error) {
	o := &dpOracle{sc: sc}
	for _, comp := range g.Components() {
		sub, orig := g.InducedSubgraph(comp)
		var order []int
		var cycle bool
		switch {
		case sub.IsPath():
			po, err := sub.PathOrder()
			if err != nil {
				return nil, err
			}
			order = po
		case sub.IsRing():
			ro, err := sub.RingOrder(0)
			if err != nil {
				return nil, err
			}
			order = ro
			cycle = true
		default:
			return nil, fmt.Errorf("bottleneck: component %v is neither a path nor a cycle", comp)
		}
		dc := dpComponent{order: make([]int, len(order)), ws: make([]numeric.Rat, len(order)), cycle: cycle}
		for i, v := range order {
			dc.order[i] = orig[v]
			dc.ws[i] = sub.Weight(v)
		}
		o.comps = append(o.comps, dc)
	}
	return o, nil
}

// value sums the per-component minima and minimizer weights with a cheap
// forward-only pass; the full membership machinery runs only in maximal.
func (o *dpOracle) value(lambda numeric.Rat) (numeric.Rat, numeric.Rat) {
	plans := o.plansFor(lambda)
	total, wS := numeric.Zero, numeric.Zero
	for i, c := range o.comps {
		cw := plans[i].value(c, o.sc)
		total = total.Add(cw.cost)
		wS = wS.Add(cw.wS)
	}
	return total, wS
}

func (o *dpOracle) maximal(lambda numeric.Rat) []int {
	plans := o.plansFor(lambda)
	var maximal []int
	for ci, c := range o.comps {
		for i, in := range plans[ci].members(c, o.sc) {
			if in {
				maximal = append(maximal, c.order[i])
			}
		}
	}
	sort.Ints(maximal)
	return maximal
}

// costW is a DP cell tracking (minimum cost, maximum minimizer weight among
// cost-minimizers); the weight lets Dinkelbach update λ without extracting
// the minimizer set.
type costW struct {
	cost, wS numeric.Rat
	ok       bool
}

// plan prepares c's plan at λ in the scratch's one-off cells and counts it
// in tally; the plan is the scratch's, valid until its next one.
func (sc *dpScratch) plan(c dpComponent, lambda numeric.Rat, tally *arithTally) *dpPlan {
	sc.cells = resize(sc.cells, 4*len(c.ws))
	sc.onePlan = c.planFor(lambda, sc.cells, tally)
	return &sc.onePlan
}

// The passes, written once over a plan's arithmetic. For λ = p/q and
// component weights w_i = n_i/D (D the lcm of the weight denominators),
// every cost is an integer multiple of 1/(q·D) and every minimizer weight
// one of 1/D — select i: −p·n_i, charge i: q·n_i, weight: n_i — and both
// plans hold these integers: the fixed-width plan in 128-bit cells
// (dpfixed.go), the big.Int plan in math/big (dpbig.go). Only a value
// pass's result is converted back to a canonical Rat. The passes reproduce
// bit for bit the normalized-Rat passes of dpref_test.go, test code only.
//
// dpArith is a plan's arithmetic as the passes see it: C its value-pass
// cell, a (cost, minimizer weight) pair, and V its membership-pass value, a
// cost alone, each infeasible as its zero value; better orders V (lower
// cost first). Seeds, charges, transitions and folds are the plan's
// concrete methods, so the Int128 adds and compares inside them are not
// reached through a type parameter; the passes cross it once per value or
// suffix sweep and hand it cells by pointer, into the scratch.
type dpArith[C any, V dpOrder[V]] interface {
	// seed sets *c, and seedVal *v, to the cell (the value) of selecting
	// vertex 0 when s0 = 1 and vertex 1 when s1 = 1, with nothing charged.
	seed(c *C, s0, s1 int)
	seedVal(v *V, s0, s1 int)
	// chargeVal adds vertex i's charge to a feasible *v.
	chargeVal(v *V, i int)
	// advance moves the value DP, in place, from the cells keyed
	// (s_{i-1}, s_i) to those keyed (s_i, s_{i+1}) for i = from, …, to-1,
	// charging vertex i when s_{i-1} ∨ s_{i+1} and selecting vertex i+1
	// when s_{i+1}; forward is one such step on costs alone.
	advance(dp *[2][2]C, from, to int)
	forward(dp *[2][2]V, i int)
	// close folds into *best the cells of dp, keyed (s_{m-2}, s_{m-1}),
	// each with vertex m-1's charge when last[s_{m-2}] and vertex 0's when
	// first[s_{m-1}].
	close(dp *[2][2]C, last, first [2]bool, best *C)
	// backward fills the suffix sweep down to position first: suffix[i],
	// keyed (s_i, s_{i+1}), from suffix[i+1], keyed (s_{i+1}, s_{i+2}),
	// charging vertex i+1 when s_i ∨ s_{i+2} and selecting it when s_{i+1}.
	backward(suffix [][2][2]V, first int)
	// glue folds into *least the totals at position i over the prefix
	// values fwd and the suffix values bwd there, with vertex i's own charge
	// [s_{i-1} ∨ s_{i+1}], over s_i = 1 alone when selected.
	glue(fwd, bwd *[2][2]V, i int, selected bool, least *V)
	toCostW(c *C) costW
	work(sc *dpScratch) *dpWork[C, V]
}

type dpOrder[T any] interface{ better(T) bool }

// valuePass is the forward DP of pathValue and cycleValue: on a path from
// (s_{-1}, s_0) = (0, ·); on a cycle from each of the four seeds
// (s_0, s_1), closed around it.
func valuePass[C any, V dpOrder[V], P dpArith[C, V]](pl P, c dpComponent, sc *dpScratch) costW {
	m, seeds, first := len(c.ws), 1, 0
	if c.cycle {
		seeds, first = 4, 1
	}
	w := pl.work(sc)
	dp := &w.dp
	w.best = *new(C)
	for s := 0; s < seeds; s++ {
		s0, s1 := s>>1, s&1
		*dp = [2][2]C{}
		if c.cycle {
			pl.seed(&dp[s0][s1], s0, s1)
		} else {
			pl.seed(&dp[0][0], 0, 0)
			pl.seed(&dp[0][1], 1, 0)
		}
		pl.advance(dp, first, m-1)
		// Vertex m-1 is charged when s_{m-2} ∨ s_0; on a cycle vertex 0 is
		// charged when s_{m-1} ∨ s_1.
		pl.close(dp, [2]bool{s0 == 1, true}, [2]bool{c.cycle && s1 == 1, c.cycle}, &w.best)
	}
	return pl.toCostW(&w.best)
}

// membershipPass is pathMembership and cycleMembership: one backward and
// one forward sweep per seed of valuePass, plus per-position gluing. It
// keeps per vertex the least total with the vertex selected; the vertex is
// in the maximal minimizer iff that total is the minimum, which the pass
// leaves in its work's least, in the plan's units. It returns the members,
// sc's slice, valid until its next pass. The suffix sweep is stored in sc
// and the prefix sweep rolls along the gluing positions.
func membershipPass[C any, V dpOrder[V], P dpArith[C, V]](pl P, c dpComponent, sc *dpScratch) []bool {
	m, seeds, first := len(c.ws), 1, 0
	if c.cycle {
		seeds, first = 4, 1
	}
	w := pl.work(sc)
	w.suffix, w.min = resize(w.suffix, m), resize(w.min, m)
	bwd, memberMin, fwd, least := w.suffix, w.min, &w.fwd, &w.least
	clear(memberMin)
	*least = *new(V)
	for s := 0; s < seeds; s++ {
		s0, s1 := s>>1, s&1
		// bwd[m-1] is keyed (s_{m-1}, s_m): s_m = 0 past a path's end; on a
		// cycle s_m = s_0, with vertex 0's charge when s_{m-1} ∨ s_1.
		bwd[m-1] = [2][2]V{}
		for b := 0; b < 2; b++ {
			pl.seedVal(&bwd[m-1][b][s0], 0, 0)
			if c.cycle && (b == 1 || s1 == 1) {
				pl.chargeVal(&bwd[m-1][b][s0], 0)
			}
		}
		pl.backward(bwd, first)
		*fwd = [2][2]V{}
		if c.cycle {
			pl.seedVal(&fwd[s0][s1], s0, s1)
		} else {
			pl.seedVal(&fwd[0][0], 0, 0)
			pl.seedVal(&fwd[0][1], 1, 0)
		}
		pl.glue(fwd, &bwd[first], first, false, least)
		if c.cycle && s0 == 1 {
			pl.glue(fwd, &bwd[first], first, false, &memberMin[0])
		}
		for i := first; i < m; i++ {
			if i > first {
				pl.forward(fwd, i-1)
			}
			pl.glue(fwd, &bwd[i], i, true, &memberMin[i])
		}
	}
	sc.members = resize(sc.members, m)
	for i := range sc.members {
		sc.members[i] = !(*least).better(memberMin[i])
	}
	return sc.members
}
