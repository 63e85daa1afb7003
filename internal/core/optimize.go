package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/bottleneck"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
)

// OptimizeOptions tunes the split optimizer. Zero values select defaults.
// The split engine itself (evaluation cache, incremental solver) belongs to
// the Instance; see SetEvalCache and SetIncremental.
type OptimizeOptions struct {
	// Grid is the number of initial uniform samples of w1 over [0, w_v]
	// (default 64).
	Grid int
	// BisectIters fixes the resolution of each decomposition breakpoint:
	// it is bracketed to the level-BisectIters dyadic sub-interval of its
	// grid cell, the bracket an exact bisection of that many steps ends on
	// (default 48, i.e. breakpoints located to w_v/2^48).
	BisectIters int
	// Workers is the parallel worker count for the grid phase (≤ 0 =
	// GOMAXPROCS).
	Workers int
}

const (
	// pieceSamples is the number of exact interior samples per piece used
	// to validate the piece's closed-form model.
	pieceSamples = 3
	// goldenIters bounds the golden-section refinement per piece (it runs
	// on the exact closed-form formula in float64, so iterations are
	// cheap).
	goldenIters = 80
)

func (o OptimizeOptions) withDefaults() OptimizeOptions {
	if o.Grid <= 0 {
		o.Grid = 64
	}
	if o.BisectIters <= 0 {
		o.BisectIters = 48
	}
	return o
}

// Piece describes one maximal interval of splits sharing a decomposition
// structure (the ⟨a_i, b_i⟩ intervals of Section III-B) together with the
// best split found inside it.
type Piece struct {
	Lo, Hi    numeric.Rat
	Signature string
	ClassV1   bottleneck.Class
	ClassV2   bottleneck.Class
	SamePair  bool
	// FormulaOK reports that the closed-form Möbius model of the piece
	// matched exact evaluations at the validation samples.
	FormulaOK bool
	BestW1    numeric.Rat
	BestU     numeric.Rat
}

// OptResult is the outcome of the split optimization.
type OptResult struct {
	// BestW1 maximizes U_{v¹}(w1, w_v−w1) + U_{v²}(w1, w_v−w1) over the
	// evaluated candidates; BestEval is its full (exact) evaluation.
	BestW1   numeric.Rat
	BestU    numeric.Rat
	BestEval *PathEval
	// Ratio = BestU / HonestU (1 when both are zero).
	Ratio numeric.Rat
	// Pieces is the certificate: the decomposition-structure intervals
	// discovered, in order.
	Pieces []Piece
	// Evals counts the exact split evaluations performed (EvalSplitCtx
	// calls, cache hits included). It is a work count, not part of the
	// answer.
	Evals int
}

// Optimize searches for the attacker's best two-identity split.
//
// Within a piece (fixed decomposition structure) each identity's utility is
// an explicit Möbius function of w1 — w1·P/(Q+w1) with exact rational
// constants read off the pair containing it — so the per-piece objective is
// maximized on its closed form (concave for distinct pairs) and the winner
// is re-evaluated exactly. Every reported number is therefore an exactly
// evaluated split: the result is a certified lower bound of ζ_v, tight to
// the optimizer's resolution. Theorem 8 caps it at 2, which callers can
// check with exact arithmetic.
func (in *Instance) Optimize(opts OptimizeOptions) (*OptResult, error) {
	return in.OptimizeCtx(context.Background(), opts)
}

// OptimizeCtx is Optimize with cancellation: the context is consulted by
// every exact evaluation (grid points, breakpoint probes, piece samples), so
// a canceled optimization aborts between decompositions with ctx.Err() and
// leaves the Instance's shared caches consistent.
func (in *Instance) OptimizeCtx(ctx context.Context, opts OptimizeOptions) (*OptResult, error) {
	opts = opts.withDefaults()
	loc := breakpointLocator{in: in, iters: opts.BisectIters, predict: modelBracket}
	return in.optimize(ctx, opts, loc.cut)
}

// optimize runs the three phases with cut locating each breakpoint.
func (in *Instance) optimize(ctx context.Context, opts OptimizeOptions, cut cutFunc) (*OptResult, error) {
	ctx, span := obs.Start(ctx, "core.optimize")
	defer span.End()
	if span != nil {
		span.SetAttr("grid", strconv.Itoa(opts.Grid))
	}
	res := &OptResult{}
	defer func() { span.AddInt("evals", int64(res.Evals)) }()
	W := in.W()
	if W.IsZero() {
		ev, err := in.EvalSplitCtx(ctx, numeric.Zero)
		if err != nil {
			return nil, err
		}
		res.BestEval, res.BestU, res.Ratio = ev, ev.U, numeric.One
		res.Evals = 1
		return res, nil
	}

	// Phase 1: uniform grid, evaluated in parallel.
	type sample struct {
		w1 numeric.Rat
		ev *PathEval
	}
	grid := make([]sample, opts.Grid+1)
	gctx, gspan := obs.Start(ctx, "optimize.grid")
	errs := par.MapCtx(gctx, len(grid), opts.Workers, func(ctx context.Context, i int) error {
		w1 := W.MulInt(int64(i)).DivInt(int64(opts.Grid))
		ev, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			return err
		}
		grid[i] = sample{w1: w1, ev: ev}
		return nil
	})
	gspan.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Evals += len(grid)

	// Phase 2: locate the breakpoint inside every cell whose ends carry
	// different structure signatures, to the level-BisectIters dyadic
	// bracket an exact bisection reaches (breakpoint.go), then try to snap
	// the bracket onto the exact breakpoint (the simplest rational inside
	// it — these boundaries are ratios of weight sums). A successful snap
	// collapses one side of the bracket, so the adjoining piece is
	// represented by its true closed endpoint and later exact evaluations
	// (per-piece bests, stage analysis) see clean rationals instead of
	// 2^-48 dust.
	type boundary struct{ lo, hi numeric.Rat }
	var cuts []boundary
	bctx, bspan := obs.Start(ctx, "optimize.breakpoints")
	for i := 0; i+1 < len(grid); i++ {
		if grid[i].ev.Signature == grid[i+1].ev.Signature {
			continue
		}
		lo, hi, evals, err := cut(bctx, grid[i].w1, grid[i+1].w1, grid[i].ev, grid[i+1].ev)
		res.Evals += evals
		if err != nil {
			bspan.End()
			return nil, err
		}
		cuts = append(cuts, boundary{lo: lo, hi: hi})
	}
	bspan.AddInt("breakpoints", int64(len(cuts)))
	bspan.End()

	// Phase 3: assemble pieces [prev.hi, next.lo] and optimize within each.
	edges := []numeric.Rat{numeric.Zero}
	for _, c := range cuts {
		edges = append(edges, c.lo, c.hi)
	}
	edges = append(edges, W)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Less(edges[j]) })

	// Seed with the honest split so that ties prefer it: when several splits
	// are optimal (e.g. ratio-1 instances, where Lemma 9 makes the honest
	// split itself optimal), the paper's stage analysis presumes the
	// "arbitrary" optimal pick is the trivial one. An arbitrary equal-value
	// w1* would send AnalyzeStages on a walk between two optima, where the
	// per-stage sign lemmas legitimately fail.
	pctx, pspan := obs.Start(ctx, "optimize.pieces")
	evHonest, err := in.EvalSplitCtx(pctx, in.W1Zero)
	if err != nil {
		pspan.End()
		return nil, err
	}
	res.Evals++
	res.BestEval, res.BestU, res.BestW1 = evHonest, evHonest.U, in.W1Zero
	best := func(w1 numeric.Rat, ev *PathEval) {
		if res.BestU.Less(ev.U) {
			res.BestEval, res.BestU, res.BestW1 = ev, ev.U, w1
		}
	}
	for i := 0; i+1 < len(edges); i += 2 {
		piece, bestEv, evals, err := in.optimizePiece(pctx, edges[i], edges[i+1], W)
		if err != nil {
			pspan.End()
			return nil, err
		}
		res.Evals += evals
		res.Pieces = append(res.Pieces, *piece)
		best(piece.BestW1, bestEv)
	}
	// The breakpoints themselves are legal splits too.
	for _, c := range cuts {
		for _, w1 := range []numeric.Rat{c.lo, c.hi} {
			ev, err := in.EvalSplitCtx(pctx, w1)
			if err != nil {
				pspan.End()
				return nil, err
			}
			res.Evals++
			best(w1, ev)
		}
	}
	pspan.AddInt("pieces", int64(len(res.Pieces)))
	pspan.End()

	if res.Ratio, err = scan.Ratio(res.BestU, in.HonestU); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res, nil
}

// optimizePiece finds the best split inside [lo, hi] (one structure piece).
func (in *Instance) optimizePiece(ctx context.Context, lo, hi, W numeric.Rat) (*Piece, *PathEval, int, error) {
	evals := 0
	mid := lo.Add(hi).DivInt(2)
	evMid, err := in.EvalSplitCtx(ctx, mid)
	if err != nil {
		return nil, nil, evals, err
	}
	evals++
	p := &Piece{
		Lo: lo, Hi: hi,
		Signature: evMid.Signature,
		ClassV1:   evMid.Dec.ClassOf(evMid.V1),
		ClassV2:   evMid.Dec.ClassOf(evMid.V2),
		SamePair:  evMid.Dec.PairIndexOf(evMid.V1) == evMid.Dec.PairIndexOf(evMid.V2),
		BestW1:    mid,
		BestU:     evMid.U,
	}
	var bestEv = evMid

	consider := func(w1 numeric.Rat) error {
		if w1.Less(lo) || hi.Less(w1) {
			return nil
		}
		ev, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			return err
		}
		evals++
		if p.BestU.Less(ev.U) {
			p.BestU, p.BestW1, bestEv = ev.U, w1, ev
		}
		return nil
	}
	if err := consider(lo); err != nil {
		return nil, nil, evals, err
	}
	if err := consider(hi); err != nil {
		return nil, nil, evals, err
	}

	// Build and validate the closed-form model of this piece.
	formula := pieceFormula(evMid, W)
	span := hi.Sub(lo)
	p.FormulaOK = true
	for k := 1; k <= pieceSamples; k++ {
		w1 := lo.Add(span.MulInt(int64(k)).DivInt(pieceSamples + 1))
		ev, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			return nil, nil, evals, err
		}
		evals++
		if p.BestU.Less(ev.U) {
			p.BestU, p.BestW1, bestEv = ev.U, w1, ev
		}
		got, want := formula(w1.Float64()), ev.U.Float64()
		if math.Abs(got-want) > 1e-9*(math.Abs(want)+1) {
			p.FormulaOK = false
		}
	}

	if p.FormulaOK {
		// Golden-section on the closed form (cheap float evaluations), then
		// one exact evaluation at the winner.
		x := goldenMax(formula, lo.Float64(), hi.Float64())
		if err := consider(snap(x, lo, hi)); err != nil {
			return nil, nil, evals, err
		}
	} else {
		// Fall back to a denser exact sweep.
		for k := 1; k <= 16; k++ {
			w1 := lo.Add(span.MulInt(int64(k)).DivInt(17))
			if err := consider(w1); err != nil {
				return nil, nil, evals, err
			}
		}
	}
	return p, bestEv, evals, nil
}

// goldenMax maximizes f over [a, b] by dense seeding plus golden-section.
func goldenMax(f func(float64) float64, a, b float64) float64 {
	const seeds = 64
	bestX, bestF := a, f(a)
	for i := 1; i <= seeds; i++ {
		x := a + (b-a)*float64(i)/float64(seeds+1)
		if v := f(x); v > bestF {
			bestX, bestF = x, v
		}
	}
	if v := f(b); v > bestF {
		bestX, bestF = b, v
	}
	// Golden-section around the best seed.
	h := (b - a) / float64(seeds+1)
	lo, hi := math.Max(a, bestX-h), math.Min(b, bestX+h)
	phi := (math.Sqrt(5) - 1) / 2
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for it := 0; it < goldenIters && hi-lo > 1e-15*(b-a+1); it++ {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = f(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = f(x1)
		}
	}
	mid := (lo + hi) / 2
	if f(mid) > bestF {
		return mid
	}
	return bestX
}

// snap converts a float candidate into an exact rational clamped to
// [lo, hi].
func snap(x float64, lo, hi numeric.Rat) numeric.Rat {
	if math.IsNaN(x) {
		return lo
	}
	r := numeric.Approximate(x, 1_000_000_007)
	if r.Less(lo) {
		return lo
	}
	if hi.Less(r) {
		return hi
	}
	return r
}

// pieceFormula builds the closed-form total utility of a piece as a float
// function of w1, from the exact pair data at the piece midpoint. Within a
// piece only w1 and w2 = W−w1 vary, so each identity's utility is:
//
//	class C (pair j):  U = w·w(B_j) / (w(C_j∖{id}) + w)
//	class B (pair j):  U = w·w(C_j) / (w(B_j∖{id}) + w)
//	class B=C:         U = w                            (α = 1)
//
// with the other identity's weight folded into the constants when both live
// in the same pair (where it appears as W − w1, still leaving a rational
// function of w1 alone).
func pieceFormula(ev *PathEval, W numeric.Rat) func(float64) float64 {
	Wf := W.Float64()
	i1, i2 := ev.Dec.PairIndexOf(ev.V1), ev.Dec.PairIndexOf(ev.V2)
	c1, c2 := ev.Dec.ClassOf(ev.V1), ev.Dec.ClassOf(ev.V2)

	pairW := func(idx int) (wB, wC float64) {
		pair := ev.Dec.Pairs[idx]
		b, c := numeric.Zero, numeric.Zero
		for _, u := range pair.B {
			b = b.Add(ev.Path.Weight(u))
		}
		for _, u := range pair.C {
			c = c.Add(ev.Path.Weight(u))
		}
		return b.Float64(), c.Float64()
	}

	if i1 == i2 {
		wB, wC := pairW(i1)
		w1m, w2m := ev.W1.Float64(), ev.W2.Float64()
		switch {
		case c1 == bottleneck.ClassBoth && c2 == bottleneck.ClassBoth:
			return func(float64) float64 { return Wf }
		case c1.IsC() && c2.IsC():
			// α = (w(C∖{v¹,v²}) + W)/w(B): constant in w1.
			kc := wC - w1m - w2m
			alpha := (kc + Wf) / wB
			return func(float64) float64 { return Wf / alpha }
		case c1.IsB() && c2.IsB():
			kb := wB - w1m - w2m
			alpha := wC / (kb + Wf)
			return func(float64) float64 { return Wf * alpha }
		case c1.IsB() && c2.IsC():
			kb, kc := wB-w1m, wC-w2m
			return func(w1 float64) float64 {
				alpha := (kc + Wf - w1) / (kb + w1)
				return w1*alpha + (Wf-w1)/alpha
			}
		default: // c1 C, c2 B
			kc, kb := wC-w1m, wB-w2m
			return func(w1 float64) float64 {
				alpha := (kc + w1) / (kb + Wf - w1)
				return w1/alpha + (Wf-w1)*alpha
			}
		}
	}

	single := func(idx int, cls bottleneck.Class, wm float64) func(float64) float64 {
		wB, wC := pairW(idx)
		switch {
		case cls == bottleneck.ClassBoth:
			return func(w float64) float64 { return w }
		case cls.IsC():
			q := wC - wm
			return func(w float64) float64 { return w * wB / (q + w) }
		default:
			q := wB - wm
			return func(w float64) float64 { return w * wC / (q + w) }
		}
	}
	u1 := single(i1, c1, ev.W1.Float64())
	u2 := single(i2, c2, ev.W2.Float64())
	return func(w1 float64) float64 { return u1(w1) + u2(Wf-w1) }
}
