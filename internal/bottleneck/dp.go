package bottleneck

import (
	"fmt"

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
// a plan costs an O(n) sweep of multiplies. The memo makes a single oracle
// unsafe for concurrent use; every construction site builds one oracle per
// decomposition stage, used by one goroutine.
type dpOracle struct {
	comps []dpComponent

	memoOK     bool
	memoLambda numeric.Rat
	memoPlans  []dpPlan
	tally      arithTally // plans built, by arithmetic
}

// dpPlan is a prepared λ-instance for one component: the fixed-width plan
// when the admission bound holds, the big.Int plan otherwise.
type dpPlan struct {
	fixed bool
	fp    fixedPlan
	bp    bigPlan
}

// arithTally counts which arithmetic a stretch of DP work ran on. Callers
// fold it into SplitSolverStats under a lock they take anyway.
type arithTally struct {
	fixedPlans, bigPlans, ratCombines int
}

func (t *arithTally) plan(fixed bool) {
	if fixed {
		t.fixedPlans++
	} else {
		t.bigPlans++
	}
}

func (o *dpOracle) plansFor(lambda numeric.Rat) []dpPlan {
	if o.memoOK && o.memoLambda.Equal(lambda) {
		return o.memoPlans
	}
	plans := make([]dpPlan, len(o.comps))
	for i, c := range o.comps {
		if fp, ok := c.fixedPlanFor(lambda); ok {
			plans[i] = dpPlan{fixed: true, fp: fp}
		} else {
			plans[i] = dpPlan{bp: c.bigPlanFor(lambda)}
		}
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
// component is neither.
func newDPOracle(g *graph.Graph) (*dpOracle, error) {
	o := &dpOracle{}
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
			_, members = c.cycleMembershipFixed(&pl.fp)
		case pl.fixed:
			_, members = c.pathMembershipFixed(&pl.fp)
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

func (a costW) better(b costW) bool {
	if !b.ok {
		return a.ok
	}
	if !a.ok {
		return false
	}
	if c := a.cost.Cmp(b.cost); c != 0 {
		return c < 0
	}
	return b.wS.Less(a.wS)
}

func (a costW) add(cost, w numeric.Rat) costW {
	return costW{cost: a.cost.Add(cost), wS: a.wS.Add(w), ok: true}
}

// valuePass runs the forward-only (cost, weight) DP over the component on
// the fixed-width plan (dpfixed.go) whenever the admission bound holds and
// on the big.Int plan (dpbig.go) otherwise. The fully normalized rational
// passes below remain as the reference implementation both are tested
// against.
func (c dpComponent) valuePass(lambda numeric.Rat) costW {
	if pl, ok := c.fixedPlanFor(lambda); ok {
		if c.cycle {
			return c.cycleValueFixed(&pl)
		}
		return c.pathValueFixed(&pl)
	}
	pl := c.bigPlanFor(lambda)
	if c.cycle {
		return c.cycleValueBig(pl)
	}
	return c.pathValueBig(pl)
}

// selCosts precomputes −λ·w_i for every vertex of the component.
func (c dpComponent) selCosts(lambda numeric.Rat) []numeric.Rat {
	sel := make([]numeric.Rat, len(c.ws))
	for i, w := range c.ws {
		sel[i] = lambda.Mul(w).Neg()
	}
	return sel
}

// pathValue is the forward pass of pathMembership restricted to values.
func (c dpComponent) pathValue(sel []numeric.Rat) costW {
	m := len(c.order)
	var dp [2][2]costW
	dp[0][0] = costW{cost: numeric.Zero, ok: true}
	dp[0][1] = costW{cost: sel[0], wS: c.ws[0], ok: true}
	for i := 0; i+1 < m; i++ {
		var ndp [2][2]costW
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if !dp[a][b].ok {
					continue
				}
				for cb := 0; cb < 2; cb++ {
					cost := charge(c.ws[i], a == 1 || cb == 1)
					var cand costW
					if cb == 1 {
						cand = dp[a][b].add(cost.Add(sel[i+1]), c.ws[i+1])
					} else {
						cand = dp[a][b].add(cost, numeric.Zero)
					}
					if cand.better(ndp[b][cb]) {
						ndp[b][cb] = cand
					}
				}
			}
		}
		dp = ndp
	}
	best := costW{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if !dp[a][b].ok {
				continue
			}
			cand := dp[a][b].add(charge(c.ws[m-1], a == 1), numeric.Zero)
			if cand.better(best) {
				best = cand
			}
		}
	}
	return best
}

// cycleValue is the forward pass of cycleMembership restricted to values.
func (c dpComponent) cycleValue(sel []numeric.Rat) costW {
	m := len(c.order)
	best := costW{}
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			var dp [2][2]costW
			init := costW{cost: numeric.Zero, ok: true}
			if s0 == 1 {
				init = init.add(sel[0], c.ws[0])
			}
			if s1 == 1 {
				init = init.add(sel[1], c.ws[1])
			}
			dp[s0][s1] = init
			for i := 1; i+1 < m; i++ {
				var ndp [2][2]costW
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if !dp[a][b].ok {
							continue
						}
						for cb := 0; cb < 2; cb++ {
							cost := charge(c.ws[i], a == 1 || cb == 1)
							var cand costW
							if cb == 1 {
								cand = dp[a][b].add(cost.Add(sel[i+1]), c.ws[i+1])
							} else {
								cand = dp[a][b].add(cost, numeric.Zero)
							}
							if cand.better(ndp[b][cb]) {
								ndp[b][cb] = cand
							}
						}
					}
				}
				dp = ndp
			}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if !dp[a][b].ok {
						continue
					}
					cand := dp[a][b].add(
						charge(c.ws[m-1], a == 1 || s0 == 1).Add(charge(c.ws[0], s1 == 1 || b == 1)),
						numeric.Zero)
					if cand.better(best) {
						best = cand
					}
				}
			}
		}
	}
	return best
}

// pathMembership computes, in one forward and one backward sweep, the free
// minimum of f_λ over the path component and for every vertex whether it
// belongs to the maximal minimizer (i.e. whether forcing it into S keeps
// the minimum unchanged).
//
// F[a][b] at position i is the best prefix cost with (s_{i-1}, s_i) = (a,b):
// selection costs of vertices ≤ i plus Γ-charges of vertices ≤ i-1.
// S[b][c] at position i is the best suffix cost with (s_i, s_{i+1}) = (b,c):
// selection costs and Γ-charges of vertices ≥ i+1. Gluing at position i adds
// the one remaining term, vertex i's own charge w_i·[a ∨ c].
func (c dpComponent) pathMembership(lambda numeric.Rat) (numeric.Rat, []bool) {
	m := len(c.order)
	fwd := make([][2][2]dpVal, m)
	for b := 0; b < 2; b++ {
		fwd[0][0][b] = dpVal{v: selCost(lambda, c.ws[0], b == 1), ok: true}
	}
	for i := 0; i+1 < m; i++ {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if !fwd[i][a][b].ok {
					continue
				}
				for cb := 0; cb < 2; cb++ {
					cost := fwd[i][a][b].v.
						Add(charge(c.ws[i], a == 1 || cb == 1)).
						Add(selCost(lambda, c.ws[i+1], cb == 1))
					cand := dpVal{v: cost, ok: true}
					if cand.better(fwd[i+1][b][cb]) {
						fwd[i+1][b][cb] = cand
					}
				}
			}
		}
	}
	bwd := make([][2][2]dpVal, m)
	for b := 0; b < 2; b++ {
		bwd[m-1][b][0] = dpVal{v: numeric.Zero, ok: true}
	}
	for i := m - 2; i >= 0; i-- {
		for b := 0; b < 2; b++ {
			for cb := 0; cb < 2; cb++ {
				best := dpVal{}
				for d := 0; d < 2; d++ {
					if !bwd[i+1][cb][d].ok {
						continue
					}
					cost := bwd[i+1][cb][d].v.Add(charge(c.ws[i+1], b == 1 || d == 1))
					cand := dpVal{v: cost, ok: true}
					if cand.better(best) {
						best = cand
					}
				}
				if best.ok {
					bwd[i][b][cb] = dpVal{v: best.v.Add(selCost(lambda, c.ws[i+1], cb == 1)), ok: true}
				}
			}
		}
	}
	// Glue at every position; the global minimum can be read at any i, and
	// membership of vertex i is the constrained minimum with b = 1.
	var globalMin dpVal
	atPos := func(i, bFixed int) dpVal {
		best := dpVal{}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if bFixed >= 0 && b != bFixed {
					continue
				}
				if !fwd[i][a][b].ok {
					continue
				}
				for cb := 0; cb < 2; cb++ {
					if !bwd[i][b][cb].ok {
						continue
					}
					cost := fwd[i][a][b].v.
						Add(charge(c.ws[i], a == 1 || cb == 1)).
						Add(bwd[i][b][cb].v)
					cand := dpVal{v: cost, ok: true}
					if cand.better(best) {
						best = cand
					}
				}
			}
		}
		return best
	}
	globalMin = atPos(0, -1)
	members := make([]bool, m)
	for i := 0; i < m; i++ {
		with := atPos(i, 1)
		members[i] = with.ok && with.v.Equal(globalMin.v)
	}
	return globalMin.v, members
}

// cycleMembership is the cycle analogue of pathMembership: for each of the
// four (s_0, s_1) boundary assignments it runs one forward and one backward
// sweep over positions 1..m-1 and glues them at every position, charging
// the two wrap-around terms w_{m-1}·[s_{m-2} ∨ s_0] and w_0·[s_1 ∨ s_{m-1}]
// at the backward base. O(m) per λ instead of the O(m²) per-vertex probes.
func (c dpComponent) cycleMembership(lambda numeric.Rat) (numeric.Rat, []bool) {
	m := len(c.order)
	if m < 3 {
		panic("bottleneck: cycle with fewer than 3 vertices")
	}
	globalMin := dpVal{}
	memberMin := make([]dpVal, m)

	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			// Forward: F[i][a][b] = best over s_2..s_i with (s_{i-1}, s_i) =
			// (a, b): selection costs of 0..i plus γ-charges of 1..i-1.
			fwd := make([][2][2]dpVal, m)
			fwd[1][s0][s1] = dpVal{
				v:  selCost(lambda, c.ws[0], s0 == 1).Add(selCost(lambda, c.ws[1], s1 == 1)),
				ok: true,
			}
			for i := 1; i+1 < m; i++ {
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if !fwd[i][a][b].ok {
							continue
						}
						for cb := 0; cb < 2; cb++ {
							cost := fwd[i][a][b].v.
								Add(charge(c.ws[i], a == 1 || cb == 1)).
								Add(selCost(lambda, c.ws[i+1], cb == 1))
							cand := dpVal{v: cost, ok: true}
							if cand.better(fwd[i+1][b][cb]) {
								fwd[i+1][b][cb] = cand
							}
						}
					}
				}
			}
			// Backward: S[i][b][c] = best suffix with (s_i, s_{i+1}) = (b, c):
			// selection of i+1..m-1, γ-charges of i+1..m-2, plus both wraps.
			bwd := make([][2][2]dpVal, m)
			for b := 0; b < 2; b++ {
				for cb := 0; cb < 2; cb++ {
					cost := selCost(lambda, c.ws[m-1], cb == 1).
						Add(charge(c.ws[m-1], b == 1 || s0 == 1)).
						Add(charge(c.ws[0], s1 == 1 || cb == 1))
					bwd[m-2][b][cb] = dpVal{v: cost, ok: true}
				}
			}
			for i := m - 3; i >= 1; i-- {
				for b := 0; b < 2; b++ {
					for cb := 0; cb < 2; cb++ {
						best := dpVal{}
						for d := 0; d < 2; d++ {
							if !bwd[i+1][cb][d].ok {
								continue
							}
							cost := bwd[i+1][cb][d].v.Add(charge(c.ws[i+1], b == 1 || d == 1))
							cand := dpVal{v: cost, ok: true}
							if cand.better(best) {
								best = cand
							}
						}
						if best.ok {
							bwd[i][b][cb] = dpVal{v: best.v.Add(selCost(lambda, c.ws[i+1], cb == 1)), ok: true}
						}
					}
				}
			}
			// Glue at position i ∈ [1, m-2]: F + γ_i(a, c) + S, optionally
			// pinning b (membership of i) or c (membership of i+1).
			glue := func(i, bFixed, cFixed int) dpVal {
				best := dpVal{}
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if bFixed >= 0 && b != bFixed {
							continue
						}
						if !fwd[i][a][b].ok {
							continue
						}
						for cb := 0; cb < 2; cb++ {
							if cFixed >= 0 && cb != cFixed {
								continue
							}
							if !bwd[i][b][cb].ok {
								continue
							}
							cost := fwd[i][a][b].v.
								Add(charge(c.ws[i], a == 1 || cb == 1)).
								Add(bwd[i][b][cb].v)
							cand := dpVal{v: cost, ok: true}
							if cand.better(best) {
								best = cand
							}
						}
					}
				}
				return best
			}
			free := glue(1, -1, -1)
			if free.better(globalMin) {
				globalMin = free
			}
			update := func(i int, v dpVal) {
				if v.better(memberMin[i]) {
					memberMin[i] = v
				}
			}
			if s0 == 1 {
				update(0, free)
			}
			if s1 == 1 {
				update(1, free)
			}
			for i := 2; i <= m-2; i++ {
				update(i, glue(i, 1, -1))
			}
			update(m-1, glue(m-2, -1, 1))
		}
	}
	members := make([]bool, m)
	for i := range members {
		members[i] = memberMin[i].ok && memberMin[i].v.Equal(globalMin.v)
	}
	return globalMin.v, members
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// dpVal is a DP cell: a value that may be infeasible.
type dpVal struct {
	v  numeric.Rat
	ok bool
}

func (a dpVal) better(b dpVal) bool {
	if !b.ok {
		return a.ok
	}
	return a.ok && a.v.Less(b.v)
}

// min returns the minimum of f_λ over subsets of the component, with
// s_forced = 1 when forced ≥ 0 (forced indexes into c.order).
func (c dpComponent) min(lambda numeric.Rat, forced int) numeric.Rat {
	if c.cycle {
		return c.minCycle(lambda, forced)
	}
	return c.minPath(lambda, forced)
}

// allowed reports which membership bits index i may take.
func allowed(forced, i int) [2]bool {
	if forced == i {
		return [2]bool{false, true}
	}
	return [2]bool{true, true}
}

// charge returns w if cond, else 0.
func charge(w numeric.Rat, cond bool) numeric.Rat {
	if cond {
		return w
	}
	return numeric.Zero
}

// selCost returns -λ·w if sel, else 0.
func selCost(lambda, w numeric.Rat, sel bool) numeric.Rat {
	if sel {
		return lambda.Mul(w).Neg()
	}
	return numeric.Zero
}

// minPath runs the DP over a path component.
//
// dp[a][b] after step i holds the best cost over prefixes with
// (s_{i-1}, s_i) = (a, b): selection costs of vertices ≤ i plus Γ-charges
// of vertices ≤ i-1. Vertex i's Γ-charge w_i·[a ∨ c] is added on the
// transition that reveals c = s_{i+1}; the final vertex's charge w_{m-1}·[a]
// is added at the end (no right neighbor).
func (c dpComponent) minPath(lambda numeric.Rat, forced int) numeric.Rat {
	m := len(c.order)
	var dp [2][2]dpVal
	for _, b := range [2]int{0, 1} {
		if allowed(forced, 0)[b] {
			dp[0][b] = dpVal{v: selCost(lambda, c.ws[0], b == 1), ok: true}
		}
	}
	for i := 0; i+1 < m; i++ {
		var ndp [2][2]dpVal
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if !dp[a][b].ok {
					continue
				}
				for cbit := 0; cbit < 2; cbit++ {
					if !allowed(forced, i+1)[cbit] {
						continue
					}
					cost := dp[a][b].v.
						Add(charge(c.ws[i], a == 1 || cbit == 1)).
						Add(selCost(lambda, c.ws[i+1], cbit == 1))
					cand := dpVal{v: cost, ok: true}
					if cand.better(ndp[b][cbit]) {
						ndp[b][cbit] = cand
					}
				}
			}
		}
		dp = ndp
	}
	best := dpVal{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if !dp[a][b].ok {
				continue
			}
			cand := dpVal{v: dp[a][b].v.Add(charge(c.ws[m-1], a == 1)), ok: true}
			if cand.better(best) {
				best = cand
			}
		}
	}
	if !best.ok {
		panic("bottleneck: infeasible path DP")
	}
	return best.v
}

// minCycle runs the DP over a cycle component by enumerating (s_0, s_1) and
// settling the two wrap-around Γ-charges at the end:
// w_{m-1}·[s_{m-2} ∨ s_0] and w_0·[s_1 ∨ s_{m-1}].
func (c dpComponent) minCycle(lambda numeric.Rat, forced int) numeric.Rat {
	m := len(c.order)
	if m < 3 {
		panic("bottleneck: cycle with fewer than 3 vertices")
	}
	best := dpVal{}
	for s0 := 0; s0 < 2; s0++ {
		if !allowed(forced, 0)[s0] {
			continue
		}
		for s1 := 0; s1 < 2; s1++ {
			if !allowed(forced, 1)[s1] {
				continue
			}
			var dp [2][2]dpVal
			dp[s0][s1] = dpVal{
				v:  selCost(lambda, c.ws[0], s0 == 1).Add(selCost(lambda, c.ws[1], s1 == 1)),
				ok: true,
			}
			for i := 1; i+1 < m; i++ {
				var ndp [2][2]dpVal
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if !dp[a][b].ok {
							continue
						}
						for cbit := 0; cbit < 2; cbit++ {
							if !allowed(forced, i+1)[cbit] {
								continue
							}
							cost := dp[a][b].v.
								Add(charge(c.ws[i], a == 1 || cbit == 1)).
								Add(selCost(lambda, c.ws[i+1], cbit == 1))
							cand := dpVal{v: cost, ok: true}
							if cand.better(ndp[b][cbit]) {
								ndp[b][cbit] = cand
							}
						}
					}
				}
				dp = ndp
			}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if !dp[a][b].ok {
						continue
					}
					cost := dp[a][b].v.
						Add(charge(c.ws[m-1], a == 1 || s0 == 1)).
						Add(charge(c.ws[0], s1 == 1 || b == 1))
					cand := dpVal{v: cost, ok: true}
					if cand.better(best) {
						best = cand
					}
				}
			}
		}
	}
	if !best.ok {
		panic("bottleneck: infeasible cycle DP")
	}
	return best.v
}
