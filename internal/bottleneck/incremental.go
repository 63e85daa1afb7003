package bottleneck

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// SplitSolver is an incremental decomposition engine for the split paths of
// the Sybil analysis: paths whose interior weights are fixed once and whose
// two leaf weights (w1, w2) vary between evaluations. A sweep over w1 on a
// fixed ring instance evaluates hundreds of such paths that differ only at
// the endpoints; the solver exploits the fixed interior three ways.
//
//  1. Prefix DP reuse. The λ-subproblem on a path is a three-implicit-state
//     linear DP (dp.go). Its transitions over the interior do not involve
//     the endpoint weights, so for each λ the solver runs the interior pass
//     once — parametrized by the membership bits of the left boundary and
//     read out per right-boundary state — and caches the resulting 4×4
//     min-plus transfer. Every later evaluation at the same λ combines the
//     cached transfer with the O(1) endpoint terms instead of re-running
//     the O(n) sweep per Dinkelbach iteration.
//  2. Warm-started Dinkelbach. The optimal λ* is a piecewise-Möbius
//     function of w1 whose structure changes only at finitely many
//     breakpoints, so the λ* of the nearest previously evaluated w1 is an
//     excellent starting iterate: most warm starts converge in one or two
//     iterations. Warm starting cannot change the answer — any start
//     λ0 ≥ λ* reaches the same unique fixed point, and undershooting
//     starts are detected and restarted cold (see maxBottleneckWarmAt).
//  3. Tail caching. The stage recursion of Definition 2 is Markovian in
//     the residual vertex set: once both endpoints have been extracted,
//     the remaining pair sequence depends only on the (fixed-weight)
//     residual interior, so it is memoized per residual set and replayed
//     exactly on every later evaluation that reaches the same residual.
//
// Every stage runs on the package's one Dinkelbach loop (dinkelbachLoop),
// and every DP pass on the one overflow rule: the fixed-width plan when its
// bound admits the instance, the big.Int plan otherwise. Each evaluation
// runs its passes in one dpScratch from a pool, so plans, sweeps and the
// per-stage slices reuse their memory from λ to λ.
//
// Exactness is preserved throughout: every cached object is an exact
// rational computation that the stock engine would repeat verbatim, so
// Eval's output is Rat-identical to DecomposeWith(p, EnginePathDP) — the
// parity tests in incremental_test.go enforce this bit for bit.
//
// SplitSolver is safe for concurrent use; the optimizer's grid phase hits
// one solver from many goroutines.
type SplitSolver struct {
	interior []numeric.Rat // fixed interior weights, path positions 1..n-2
	n        int           // full path length (≥ 3 for the incremental path)
	order    []int         // the full path's positions 0..n-1, read-only
	ok       bool          // incremental machinery usable (positive interior)

	interiorComp dpComponent // interior-only component for integer planning

	mu        sync.Mutex
	transfers map[string]*interiorTransfer
	tails     map[string][]Pair
	hints     map[string][]warmHint
	stats     SplitSolverStats
}

// SplitSolverStats counts the solver's cache behavior; read via Stats.
type SplitSolverStats struct {
	// Evals is the number of Eval calls; Fallbacks of those were served by
	// the stock engine (zero endpoint or interior weights, or a too-short
	// path).
	Evals, Fallbacks int
	// Stage1Warm / Stage1Cold count first-stage Dinkelbach runs that
	// started from a warm hint vs from scratch; WarmRestarts counts warm
	// starts that undershot λ* and restarted cold.
	Stage1Warm, Stage1Cold, WarmRestarts int
	// TransferHits / TransferMisses count per-λ interior transfer lookups.
	TransferHits, TransferMisses int
	// TailHits / TailMisses count memoized residual tail lookups.
	TailHits, TailMisses int
	// LaterWarm / LaterCold count Dinkelbach runs of endpoint-bearing
	// stages after the first (induced-subgraph stages).
	LaterWarm, LaterCold int
	// FixedPlans / BigPlans count the DP plans the solver built (interior
	// transfers, later-stage components, full-path memberships and
	// whole-path value passes) on the fixed-width path and on the big.Int
	// overflow path. WholePathPasses counts first-stage values that could
	// not combine a cached transfer in integers — the interior has no plan
	// on int64 parts at λ, or the endpoint sums are past their checks — and
	// ran the value pass over the whole path instead. Residual tails run on the stock
	// engine and are not counted.
	FixedPlans, BigPlans, WholePathPasses int
}

func (st *SplitSolverStats) fold(t arithTally) {
	st.FixedPlans += t.fixedPlans
	st.BigPlans += t.bigPlans
	st.WholePathPasses += t.wholePaths
}

type warmHint struct {
	w1     float64 // heuristic locator only; exactness never depends on it
	lambda numeric.Rat
}

// interiorTransfer is the interior prefix DP at one λ = p/q:
// cells[2·s0+s1][a][b] is the best (cost, selected weight) over interior
// assignments with left boundary (s_0, s_1) and right boundary
// (s_{n-3}, s_{n-2}) = (a, b), counting selection costs of positions 1..n-2
// and Γ-charges of positions 1..n-3. Endpoint terms (positions 0 and n-1,
// and the charge of n-2, which needs s_{n-1}) are combined per evaluation.
//
// The cells are fixed-width integers in units of 1/(q·d) (cost) and 1/d
// (weight). A transfer exists only for a λ at which the interior admits the
// fixed-width plan on int64 parts; at any other λ the first stage runs the
// whole path.
type interiorTransfer struct {
	cells      [4][2][2]fixedCell
	d          int64
	bound      numeric.Int128 // the plan's bound: no interior value exceeds it
	lastCharge numeric.Int128 // q·n_{n-2}, the charge of the last interior position
}

// fullPathKey keys the warm-hint list of the first (full-path) stage.
const fullPathKey = "*"

// NewSplitSolver prepares an incremental solver for paths of the form
// [w1, interior..., w2]. Interior weights are captured by value.
func NewSplitSolver(interior []numeric.Rat) *SplitSolver {
	s := &SplitSolver{
		interior:  append([]numeric.Rat(nil), interior...),
		n:         len(interior) + 2,
		order:     iota0(len(interior) + 2),
		ok:        len(interior) >= 1,
		transfers: make(map[string]*interiorTransfer),
		tails:     make(map[string][]Pair),
		hints:     make(map[string][]warmHint),
	}
	for _, w := range s.interior {
		if w.Sign() <= 0 {
			// Zero interior weights engage the zero-attachment convention
			// of DecomposeWith; keep every evaluation on the stock path.
			s.ok = false
		}
	}
	if s.ok {
		s.interiorComp = dpComponent{order: iota0(len(interior)), ws: s.interior}
	}
	return s
}

// Stats returns a snapshot of the solver's cache counters.
func (s *SplitSolver) Stats() SplitSolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Eval decomposes the path p, which must be the path graph
// [w1, interior..., w2] over the solver's interior. The result is
// Rat-identical to DecomposeWith(p, EnginePathDP) in every α, pair set and
// derived utility; only the amount of work differs.
func (s *SplitSolver) Eval(p *graph.Graph, w1, w2 numeric.Rat) (*Decomposition, error) {
	return s.EvalCtx(context.Background(), p, w1, w2)
}

// EvalCtx is Eval with cancellation, checked at stage boundaries and inside
// every Dinkelbach run. Cancellation is safe for the shared solver: every
// cached object (interior transfer, residual tail, warm hint) is inserted
// only after it is fully built, so an abandoned evaluation leaves the caches
// exactly as a never-started one would, and concurrent evaluations are
// unaffected.
func (s *SplitSolver) EvalCtx(ctx context.Context, p *graph.Graph, w1, w2 numeric.Rat) (*Decomposition, error) {
	ctx, span := obs.Start(ctx, "splitsolver.eval")
	defer span.End()
	s.mu.Lock()
	s.stats.Evals++
	s.mu.Unlock()
	if !s.ok || w1.Sign() <= 0 || w2.Sign() <= 0 || p.N() != s.n {
		// Zero-weight endpoints trigger DecomposeWith's explicit
		// zero-attachment convention; replaying it here would duplicate
		// subtle code for the two grid-boundary splits of a sweep.
		s.mu.Lock()
		s.stats.Fallbacks++
		s.mu.Unlock()
		span.AddInt("fallback", 1)
		return DecomposeCtx(ctx, p, EnginePathDP)
	}

	sc := scratchPool.Get().(*dpScratch)
	defer putScratch(sc)
	residual := iota0(s.n)
	var pairs []Pair
	var tally arithTally
	for len(residual) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hasLeft := residual[0] == 0
		hasRight := residual[len(residual)-1] == s.n-1
		if !hasLeft && !hasRight {
			tail, err := s.tailFor(ctx, p, residual)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, tail...)
			break
		}
		var (
			alpha numeric.Rat
			B, C  []int
			err   error
		)
		if len(residual) == s.n {
			alpha, B, err = s.stage1(ctx, w1, w2, sc, &tally)
			if err != nil {
				return nil, err
			}
			C = p.NeighborhoodSet(B)
		} else {
			alpha, B, C, err = s.laterStage(ctx, residual, w1, w2, hasLeft, hasRight, sc, &tally)
			if err != nil {
				return nil, err
			}
		}
		// Defensive audit, as in decomposeInner: λ must equal w(C)/w(B).
		if wb := p.WeightOf(B); !p.WeightOf(C).Div(wb).Equal(alpha) {
			return nil, fmt.Errorf("bottleneck: incremental α mismatch: λ=%v but w(C)/w(B)=%v",
				alpha, p.WeightOf(C).Div(wb))
		}
		pairs = append(pairs, Pair{B: B, C: C, Alpha: alpha})
		rm := sc.vertexMarks(s.n)
		for _, v := range B {
			rm[v] = true
		}
		for _, v := range C {
			rm[v] = true
		}
		next := residual[:0]
		for _, v := range residual {
			if !rm[v] {
				next = append(next, v)
			}
		}
		if len(next) == len(residual) {
			return nil, fmt.Errorf("bottleneck: incremental decomposition made no progress")
		}
		residual = next
	}
	span.AddInt("stages", int64(len(pairs)))
	span.AddInt("fixed_plans", int64(tally.fixedPlans))
	span.AddInt("big_plans", int64(tally.bigPlans))
	d := &Decomposition{Pairs: pairs}
	if err := d.finish(s.n); err != nil {
		return nil, err
	}
	return d, nil
}

// stage1 finds the maximal bottleneck of the full path with the shared
// Dinkelbach loop over the cached interior transfers. The cold start is
// α(V) = 1 (Γ(V) = V on a path with ≥ 2 vertices and positive weights), so
// a hint counts as a warm start only strictly inside (0, 1). The run's
// arithmetic is added to tally.
func (s *SplitSolver) stage1(ctx context.Context, w1, w2 numeric.Rat, sc *dpScratch, tally *arithTally) (numeric.Rat, []int, error) {
	sp := obs.FromContext(ctx)
	warm, ok := s.nearestHint(fullPathKey, w1.Float64())
	hinted := ok && warm.Sign() > 0 && warm.Less(numeric.One)
	if !hinted {
		warm = numeric.Rat{} // maxBottleneckWarmAt ignores a λ0 of 0
	}
	o := &fullPathOracle{s: s, ctx: ctx, sc: sc, w1: w1, w2: w2}
	_, weightOf := s.pathWeights(w1, w2)
	alpha, B, usedWarm, err := maxBottleneckWarmAt(ctx, s.n, weightOf, func() numeric.Rat { return numeric.One }, o, warm)
	if err != nil {
		return numeric.Rat{}, nil, err
	}
	counter := &s.stats.Stage1Cold
	if usedWarm {
		counter = &s.stats.Stage1Warm
		sp.AddInt("stage1_warm", 1)
	} else {
		if hinted { // the warm run undershot λ* and restarted cold
			s.mu.Lock()
			s.stats.WarmRestarts++
			s.mu.Unlock()
			sp.AddInt("warm_restarts", 1)
		}
		sp.AddInt("stage1_cold", 1)
	}
	s.recordRun(fullPathKey, w1.Float64(), alpha, counter, o.tally)
	tally.add(o.tally)
	return alpha, B, nil
}

// fullPathOracle is the λ-subproblem of the full path for the shared
// Dinkelbach loop: value combines the cached interior transfer with the
// endpoint terms, and maximal runs the membership DP over the whole path,
// which the loop does only at λ*. Every value call is one iteration,
// counted on the eval span. It keeps no plan between calls: each pass
// builds its own in sc's one-off cells.
type fullPathOracle struct {
	s      *SplitSolver
	ctx    context.Context
	sc     *dpScratch
	w1, w2 numeric.Rat
	tally  arithTally
}

func (o *fullPathOracle) value(lambda numeric.Rat) (numeric.Rat, numeric.Rat) {
	obs.FromContext(o.ctx).AddInt("iters", 1)
	return o.s.valueFull(o.s.transferFor(o.ctx, lambda, o.sc, &o.tally), lambda, o.w1, o.w2, o.sc, &o.tally)
}

func (o *fullPathOracle) maximal(lambda numeric.Rat) []int {
	return o.s.fullMembers(lambda, o.w1, o.w2, o.sc, &o.tally)
}

// laterStage extracts the maximal bottleneck of an endpoint-bearing
// residual strictly smaller than the full path, warm-started from the λ*
// recorded for the same residual at the nearest previously evaluated
// endpoint weight. The residual of a path decomposition is a union of
// subpaths — the maximal runs of consecutive positions — so the DP
// components are sliced straight out of the fixed interior instead of
// materializing an induced subgraph per stage; a run holding an endpoint
// takes its weights in sc. The cold start α(V) is summed only when the
// cold run happens. The run's arithmetic is added to tally.
func (s *SplitSolver) laterStage(ctx context.Context, residual []int, w1, w2 numeric.Rat, hasLeft, hasRight bool, sc *dpScratch, tally *arithTally) (numeric.Rat, []int, []int, error) {
	wAt, weightOf := s.pathWeights(w1, w2)
	comps := sc.comps[:0]
	sc.ws = resize(sc.ws, len(residual))
	free := sc.ws // the endpoint runs' weights, disjoint slices of sc.ws
	for i := 0; i < len(residual); {
		j := i + 1
		for j < len(residual) && residual[j] == residual[j-1]+1 {
			j++
		}
		run := residual[i:j]
		var ws []numeric.Rat
		if run[0] > 0 && run[len(run)-1] < s.n-1 {
			ws = s.interior[run[0]-1 : run[len(run)-1]]
		} else {
			ws, free = free[:len(run):len(run)], free[len(run):]
			for k, v := range run {
				ws[k] = wAt(v)
			}
		}
		comps = append(comps, dpComponent{order: run, ws: ws})
		i = j
	}
	sc.comps = comps
	alphaV := func() numeric.Rat {
		total, gamma := numeric.Zero, numeric.Zero
		for _, c := range comps {
			runW := numeric.Zero
			for _, w := range c.ws {
				runW = runW.Add(w)
			}
			total = total.Add(runW)
			if len(c.ws) > 1 {
				// Γ(V) of the residual is exactly the non-isolated
				// vertices: every vertex of a run of length ≥ 2 has a
				// neighbor in it.
				gamma = gamma.Add(runW)
			}
		}
		return gamma.Div(total)
	}
	key := intsKey(residual)
	locator := w1.Float64()
	if !hasLeft && hasRight {
		locator = w2.Float64()
	}
	warm, _ := s.nearestHint(key, locator)
	oracle := &dpOracle{comps: comps, sc: sc}
	alpha, B, usedWarm, err := maxBottleneckWarmAt(ctx, len(residual), weightOf, alphaV, oracle, warm)
	if err != nil {
		return numeric.Rat{}, nil, nil, err
	}
	counter := &s.stats.LaterCold
	if usedWarm {
		counter = &s.stats.LaterWarm
		obs.FromContext(ctx).AddInt("later_warm", 1)
	} else {
		obs.FromContext(ctx).AddInt("later_cold", 1)
	}
	s.recordRun(key, locator, alpha, counter, oracle.tally)
	tally.add(oracle.tally)
	// C = Γ(B) within the residual: a residual position whose path neighbor
	// is in B (components are index runs and B lies in the residual, so
	// adjacency is v±1 ∈ B).
	inB := sc.vertexMarks(s.n)
	for _, v := range B {
		inB[v] = true
	}
	var C []int
	for _, v := range residual {
		if (v > 0 && inB[v-1]) || (v < s.n-1 && inB[v+1]) {
			C = append(C, v)
		}
	}
	return alpha, B, C, nil
}

// tailFor returns the remaining pair sequence of an endpoint-free residual,
// computing it once per residual set with the stock engine. The stage
// recursion depends only on the residual graph, whose weights are all
// fixed interior weights here, so the memoized tail is exact.
func (s *SplitSolver) tailFor(ctx context.Context, p *graph.Graph, residual []int) ([]Pair, error) {
	key := intsKey(residual)
	s.mu.Lock()
	cached, ok := s.tails[key]
	if ok {
		s.stats.TailHits++
	}
	s.mu.Unlock()
	if ok {
		obs.FromContext(ctx).AddInt("tail_hits", 1)
	}
	if !ok {
		obs.FromContext(ctx).AddInt("tail_misses", 1)
		sub, orig := p.InducedSubgraph(residual)
		dec, err := DecomposeCtx(ctx, sub, EnginePathDP)
		if err != nil {
			return nil, err
		}
		cached = make([]Pair, len(dec.Pairs))
		for i, pr := range dec.Pairs {
			cached[i] = Pair{B: mapBack(pr.B, orig), C: mapBack(pr.C, orig), Alpha: pr.Alpha}
		}
		s.mu.Lock()
		s.tails[key] = cached
		s.stats.TailMisses++
		s.mu.Unlock()
	}
	// Copy out so every Decomposition owns its pair slices.
	out := make([]Pair, len(cached))
	for i, pr := range cached {
		out[i] = Pair{
			B:     append([]int(nil), pr.B...),
			C:     append([]int(nil), pr.C...),
			Alpha: pr.Alpha,
		}
	}
	return out, nil
}

// pathWeights returns the weight of one position and of a position set on
// the path [w1, interior..., w2].
func (s *SplitSolver) pathWeights(w1, w2 numeric.Rat) (wAt func(int) numeric.Rat, weightOf func([]int) numeric.Rat) {
	wAt = func(v int) numeric.Rat {
		switch v {
		case 0:
			return w1
		case s.n - 1:
			return w2
		}
		return s.interior[v-1]
	}
	weightOf = func(S []int) numeric.Rat {
		t := numeric.Zero
		for _, v := range S {
			t = t.Add(wAt(v))
		}
		return t
	}
	return wAt, weightOf
}

// transferFor returns the interior transfer at λ, building and caching it
// on first use, or nil when the interior does not admit the fixed-width
// plan at λ on int64 parts. The absence is cached too, so later calls at
// that λ do not plan the interior again. A transfer built here is counted
// in tally. The context only carries the obs span the hit/miss is charged
// to — the prefix-DP reuse signal of the trace.
func (s *SplitSolver) transferFor(ctx context.Context, lambda numeric.Rat, sc *dpScratch, tally *arithTally) *interiorTransfer {
	key := lambda.String()
	s.mu.Lock()
	t, ok := s.transfers[key]
	if ok {
		s.stats.TransferHits++
	}
	s.mu.Unlock()
	if ok {
		obs.FromContext(ctx).AddInt("transfer_hits", 1)
		return t
	}
	t = s.buildTransfer(lambda, sc)
	s.mu.Lock()
	if prev, ok := s.transfers[key]; ok {
		t = prev // another goroutine built the identical transfer first
	} else {
		s.transfers[key] = t
	}
	s.stats.TransferMisses++
	s.mu.Unlock()
	if t != nil {
		tally.plan(true)
	}
	obs.FromContext(ctx).AddInt("transfer_misses", 1)
	return t
}

// buildTransfer runs the interior prefix DP at λ once per left-boundary
// assignment on the fixed-width plan, built in sc, or returns nil when the
// interior does not admit that plan at λ on int64 parts: combineFixed works
// in int64 parts, so a plan scaled in math/big builds no transfer. The cells
// stay in the plan's integer units and are copied out of sc.
func (s *SplitSolver) buildTransfer(lambda numeric.Rat, sc *dpScratch) *interiorTransfer {
	if _, _, ok := lambda.Int64Parts(); !ok {
		return nil // every plan at this λ is scaled in math/big
	}
	k := len(s.interior)
	sc.cells = resize(sc.cells, 4*k)
	pl, ok := s.interiorComp.fixedPlanFor(lambda, sc.cells)
	if !ok || pl.wide {
		return nil
	}
	d, _ := pl.d.Int64()
	t := &interiorTransfer{d: d, bound: pl.bound, lastCharge: pl.charge[k-1]}
	for st := 0; st < 4; st++ {
		s0, s1 := st>>1, st&1
		var dp [2][2]fixedCell
		pl.seed(&dp[s0][s1], s1, 0)
		pl.advance(&dp, 0, k-1)
		t.cells[st] = dp
	}
	return t
}

// valueFull is the subproblem minimum of the full path at λ and the weight
// of its maximal-weight minimizer. With a transfer t it combines the cached
// interior cells with the endpoint terms of (w1, w2) in integers, O(1) in
// the path length (combineFixed). Without one, or when combineFixed rejects
// the endpoint sums, it runs the value pass over the whole path in sc, on
// the fixed-width or big.Int plan like every other DP pass; tally counts
// that pass and its plan.
func (s *SplitSolver) valueFull(t *interiorTransfer, lambda, w1, w2 numeric.Rat, sc *dpScratch, tally *arithTally) (numeric.Rat, numeric.Rat) {
	if t != nil {
		if val, wS, ok := t.combineFixed(lambda, w1, w2); ok {
			return val, wS
		}
	}
	tally.wholePaths++
	c := s.fullPath(w1, w2, sc)
	cw := sc.plan(c, lambda, tally).value(c, sc)
	return cw.cost, cw.wS
}

// combineFixed is valueFull in integers over the common denominator q·L,
// L = lcm(d, den w1, den w2): costs in units of 1/(q·L), weights in units
// of 1/L. Every candidate is the sum of three parts — the interior (a cell
// plus the charge of n-2, at most bound in units of 1/(q·d)), the w1 terms
// and the w2 terms (each at most (|p|+q)·|n_j| in units of 1/(q·den w_j)) —
// and each part is checked below 2^125 after rescaling, so every sum stays
// below 2^127 and the adds need no checks. ok=false sends the call to the
// whole-path pass: an operand off int64, L past int64, or a part past the
// bound.
//
// The minimum is taken over s_{n-1} first, per right boundary (a, b), and
// over the 16 cells second: adding a constant preserves the (cost, −wS)
// order, and the minimum pair is unique, so the result is the one the
// whole-path pass returns.
func (t *interiorTransfer) combineFixed(lambda, w1, w2 numeric.Rat) (numeric.Rat, numeric.Rat, bool) {
	const partBits = 125
	p, q, ok := lambda.Int64Parts()
	n1, d1, ok1 := w1.Int64Parts()
	n2, d2, ok2 := w2.Int64Parts()
	if !ok || !ok1 || !ok2 {
		return numeric.Rat{}, numeric.Rat{}, false
	}
	l, ok := numeric.LcmInt64(t.d, d1)
	if ok {
		l, ok = numeric.LcmInt64(l, d2)
	}
	if !ok {
		return numeric.Rat{}, numeric.Rat{}, false
	}
	f, f1, f2 := uint64(l/t.d), uint64(l/d1), uint64(l/d2)
	k := numeric.AbsU64(p) + uint64(q)
	_, okI := t.bound.MulBelow(f, partBits)
	_, ok1 = numeric.Int128Of(n1).Abs().Mul(k).MulBelow(f1, partBits)
	_, ok2 = numeric.Int128Of(n2).Abs().Mul(k).MulBelow(f2, partBits)
	if !okI || !ok1 || !ok2 {
		return numeric.Rat{}, numeric.Rat{}, false
	}
	u1, u2 := numeric.Int128Of(n1).Mul(f1), numeric.Int128Of(n2).Mul(f2) // w1, w2 in units of 1/L
	sel1, charge1 := u1.MulInt(p).Neg(), u1.Mul(uint64(q))
	sel2, charge2 := u2.MulInt(p).Neg(), u2.Mul(uint64(q))
	chargeLast := t.lastCharge.Mul(f)

	// right[a][b]: the best s_{n-1} for right boundary (a, b), with the
	// charge of n-1 (w2·[s_{n-2}]) included.
	var right [2][2]fixedCell
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			off := fixedCell{ok: true}
			if a == 1 {
				off.cost = chargeLast
			}
			if on := (fixedCell{cost: chargeLast.Add(sel2), wS: u2, ok: true}); on.better(off) {
				off = on
			}
			if b == 1 {
				off.cost = off.cost.Add(charge2)
			}
			right[a][b] = off
		}
	}
	best := fixedCell{}
	for st := 0; st < 4; st++ {
		var left fixedCell
		if st>>1 == 1 {
			left.cost, left.wS = sel1, u1
		}
		if st&1 == 1 {
			left.cost = left.cost.Add(charge1) // charge of position 0: w1·[s_1]
		}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				cell := t.cells[st][a][b]
				if !cell.ok {
					continue
				}
				cand := fixedCell{
					cost: cell.cost.Mul(f).Add(left.cost).Add(right[a][b].cost),
					wS:   cell.wS.Mul(f).Add(left.wS).Add(right[a][b].wS),
					ok:   true,
				}
				if cand.better(best) {
					best = cand
				}
			}
		}
	}
	return numeric.FromInt128(best.cost, numeric.Int128Of(q).Mul(uint64(l))), numeric.FromInt128(best.wS, numeric.Int128Of(l)), true
}

// fullMembers extracts the maximal minimizer of the full path at λ with the
// stock membership DP (one O(n) forward/backward sweep) in sc, so the
// extracted set is byte-identical to the one dpOracle.maximal would report.
func (s *SplitSolver) fullMembers(lambda, w1, w2 numeric.Rat, sc *dpScratch, tally *arithTally) []int {
	c := s.fullPath(w1, w2, sc)
	var out []int
	for i, m := range sc.plan(c, lambda, tally).members(c, sc) {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// fullPath is the whole path [w1, interior..., w2] as one DP component,
// its weights in sc.
func (s *SplitSolver) fullPath(w1, w2 numeric.Rat, sc *dpScratch) dpComponent {
	sc.ws = resize(sc.ws, s.n)
	ws := sc.ws
	ws[0] = w1
	copy(ws[1:], s.interior)
	ws[s.n-1] = w2
	return dpComponent{order: s.order, ws: ws}
}

// nearestHint returns a warm λ for the locator: the larger of the λ*
// recorded at the two surrounding w1 values. Dinkelbach converges from
// above, and within a structure piece λ* is a monotone Möbius function of
// w1, so the max over a bracketing pair is ≥ λ* for every locator inside
// the bracket — undershoot restarts then happen only across piece
// boundaries. Hints are a pure heuristic either way: a bad hint costs at
// most a restarted run, never a wrong answer.
func (s *SplitSolver) nearestHint(key string, locator float64) (numeric.Rat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := s.hints[key]
	if len(hs) == 0 {
		return numeric.Rat{}, false
	}
	i := sort.Search(len(hs), func(i int) bool { return hs[i].w1 >= locator })
	warm, found := numeric.Rat{}, false
	for _, cand := range []int{i - 1, i} {
		if cand < 0 || cand >= len(hs) {
			continue
		}
		if !found || warm.Less(hs[cand].lambda) {
			warm = hs[cand].lambda
		}
		found = true
	}
	return warm, found
}

// recordRun stores the λ* attained at locator for future warm starts, bumps
// the given stats counter and folds in the run's arithmetic tally.
func (s *SplitSolver) recordRun(key string, locator float64, lambda numeric.Rat, counter *int, tally arithTally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*counter++
	s.stats.fold(tally)
	hs := s.hints[key]
	i := sort.Search(len(hs), func(i int) bool { return hs[i].w1 >= locator })
	if i < len(hs) && hs[i].w1 == locator {
		hs[i].lambda = lambda
		return
	}
	hs = append(hs, warmHint{})
	copy(hs[i+1:], hs[i:])
	hs[i] = warmHint{w1: locator, lambda: lambda}
	s.hints[key] = hs
}

func iota0(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// intsKey renders a sorted vertex set as a compact map key.
func intsKey(xs []int) string {
	var b strings.Builder
	b.Grow(len(xs) * 3)
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}
