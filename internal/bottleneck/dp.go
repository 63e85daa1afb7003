package bottleneck

import (
	"fmt"
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

// dpScratch is the working memory of the DP passes of one evaluation — a
// decomposition, or one split-solver evaluation — reused from λ to λ and
// from stage to stage instead of allocated per pass. Every pass writes what
// it reads, so a scratch carries nothing from one pass to the next but its
// capacity. A scratch serves one goroutine and one live dpOracle at a time
// (the oracle's λ memo points into memo), and nothing that outlives the
// evaluation may alias it: the pairs, their B and C, the Decomposition and
// the cached interior transfers are all copied out.
type dpScratch struct {
	memo      []numeric.Int128 // cells of a dpOracle's memoized plans
	cells     []numeric.Int128 // cells of a one-off plan: a transfer, a whole-path pass
	plans     []dpPlan         // a dpOracle's memoized plans
	sweep     [][2][2]fixedVal // the suffix sweep of a membership pass
	memberMin []fixedVal       // a cycle membership pass's per-vertex minima
	members   []bool           // a membership pass's result
	ws        []numeric.Rat    // the split solver's whole-path or endpoint-run weights
	comps     []dpComponent    // the split solver's later-stage components
	marks     []bool           // vertex marks of a stage's bookkeeping
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

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
		if fp, ok := c.fixedPlanFor(lambda, buf); ok {
			plans[i] = dpPlan{fixed: true, fp: fp}
		} else {
			plans[i] = dpPlan{bp: c.bigPlanFor(lambda)}
		}
		buf = buf[4*len(c.ws):]
		o.tally.plan(plans[i].fixed)
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
		var cw costW
		switch pl := &plans[i]; {
		case pl.fixed && c.cycle:
			cw = c.cycleValueFixed(&pl.fp)
		case pl.fixed:
			cw = c.pathValueFixed(&pl.fp)
		case c.cycle:
			cw = c.cycleValueBig(pl.bp)
		default:
			cw = c.pathValueBig(pl.bp)
		}
		total = total.Add(cw.cost)
		wS = wS.Add(cw.wS)
	}
	return total, wS
}

func (o *dpOracle) maximal(lambda numeric.Rat) []int {
	plans := o.plansFor(lambda)
	var maximal []int
	for ci, c := range o.comps {
		var members []bool
		switch pl := &plans[ci]; {
		case pl.fixed && c.cycle:
			_, members = c.cycleMembershipFixed(&pl.fp, o.sc)
		case pl.fixed:
			_, members = c.pathMembershipFixed(&pl.fp, o.sc)
		case c.cycle:
			_, members = c.cycleMembershipBig(pl.bp)
		default:
			_, members = c.pathMembershipBig(pl.bp)
		}
		for i, v := range c.order {
			if members[i] {
				maximal = append(maximal, v)
			}
		}
	}
	sortInts(maximal)
	return maximal
}

// costW is a DP cell tracking (minimum cost, maximum minimizer weight among
// cost-minimizers); the weight lets Dinkelbach update λ without extracting
// the minimizer set.
type costW struct {
	cost, wS numeric.Rat
	ok       bool
}

// valuePass runs the forward-only (cost, weight) DP over the component on
// the fixed-width plan (dpfixed.go), built in sc's one-off cells, whenever
// the admission bound holds and on the big.Int plan (dpbig.go) otherwise,
// and counts the plan in tally. The normalized-rational reference both
// plans are tested against lives in dpref_test.go.
func (c dpComponent) valuePass(lambda numeric.Rat, sc *dpScratch, tally *arithTally) costW {
	sc.cells = resize(sc.cells, 4*len(c.ws))
	pl, fixed := c.fixedPlanFor(lambda, sc.cells)
	tally.plan(fixed)
	switch {
	case fixed && c.cycle:
		return c.cycleValueFixed(&pl)
	case fixed:
		return c.pathValueFixed(&pl)
	case c.cycle:
		return c.cycleValueBig(c.bigPlanFor(lambda))
	}
	return c.pathValueBig(c.bigPlanFor(lambda))
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
