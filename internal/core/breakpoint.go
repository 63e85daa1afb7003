package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/bottleneck"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// cutFunc locates the signature breakpoint inside one grid cell [lo, hi]
// whose end evaluations evLo and evHi carry different signatures. It
// returns the final bracket and the number of EvalSplitCtx calls it made.
type cutFunc func(ctx context.Context, lo, hi numeric.Rat, evLo, evHi *PathEval) (cutLo, cutHi numeric.Rat, evals int, err error)

// bracketPredictor guesses the index j of the level-iters dyadic interval
// [lo + j·h, lo + (j+1)·h], h = (hi − lo)/2^iters, that holds the crossing
// out of evLo's signature, from the decompositions at lo and at a point of
// the cell past the crossing (evX). ok is false when it has no guess.
type bracketPredictor func(evLo, evX *PathEval, lo, hi numeric.Rat, iters int) (j int64, ok bool)

// breakpointLocator finds phase 2's cuts. Each cut is the one an exact
// bisection of the cell would return — iters halvings that keep the left
// end on evLo's signature (the left signature) and the right end off it,
// then the Stern–Brocot snap — provided the cell satisfies the contiguity
// premise of Section III-B: the points of the cell carrying the left
// signature form an interval starting at the cell's left end (the premise
// analysis.IntervalPartition rests on too). The bisection then ends on the
// unique level-iters dyadic interval whose left end carries the left
// signature and whose right end does not. The locator predicts that
// interval from the two decompositions around the crossing, verifies it by
// evaluating its two ends (which phase 3 evaluates anyway), and walks the
// dyadic levels itself only where a prediction fails.
//
// The locator keeps a verified window (L, H): L is the largest point known
// to carry the left signature, H the smallest known not to. Under the
// premise every point ≤ L carries it and every point ≥ H does not, so the
// descent evaluates only the midpoints strictly inside (L, H); with
// (L, H) = (lo, hi) it is the bisection probe for probe. An evaluation that
// contradicts the premise — a left-signature point past one without it —
// resets the window to the whole cell, and the descent then rescans the
// cell exactly as the bisection does.
type breakpointLocator struct {
	in      *Instance
	iters   int
	predict bracketPredictor
}

// cut implements cutFunc. The optimize.breakpoints span counts cuts
// accepted on a prediction (predicted), descent evaluations (probes) and
// premise re-runs (rescans).
func (l breakpointLocator) cut(ctx context.Context, lo0, hi0 numeric.Rat, evLo, evHi *PathEval) (numeric.Rat, numeric.Rat, int, error) {
	sigLo := evLo.Signature
	evals := 0
	eval := func(w1 numeric.Rat) (*PathEval, error) {
		evals++
		return l.in.EvalSplitCtx(ctx, w1)
	}
	L, H, evH := lo0, hi0, evHi
	// note folds one evaluation into the window and reports whether it
	// carries the left signature.
	note := func(x numeric.Rat, ev *PathEval) bool {
		if ev.Signature == sigLo {
			L = L.Max(x)
			return true
		}
		if x.Less(H) {
			H, evH = x, ev
		}
		return false
	}

	// Predict, then verify. A prediction whose left end misses the left
	// signature is retried once, modelled against that evaluation: this is
	// how cells holding three or more signatures converge.
	cell := hi0.Sub(lo0)
	evX, accepted := evHi, false
	for try := 0; try < 2; try++ {
		j, ok := l.predict(evLo, evX, lo0, hi0, l.iters)
		if !ok || j < 0 || j >= int64(1)<<l.iters {
			break
		}
		a := lo0.Add(cell.Mul(numeric.New(j, int64(1)<<l.iters)))
		evA, err := eval(a)
		if err != nil {
			return numeric.Rat{}, numeric.Rat{}, evals, err
		}
		if !note(a, evA) {
			evX = evA
			continue
		}
		b := lo0.Add(cell.Mul(numeric.New(j+1, int64(1)<<l.iters)))
		evB, err := eval(b)
		if err != nil {
			return numeric.Rat{}, numeric.Rat{}, evals, err
		}
		accepted = !note(b, evB)
		break
	}

	probes, rescans := 0, 0
	if H.Less(L) {
		rescans = 1
		L, H, evH = lo0, hi0, evHi
		accepted = false
	}
	if !accepted {
		lo, hi := lo0, hi0
		for it := 0; it < l.iters; it++ {
			mid := lo.Add(hi).DivInt(2)
			switch {
			case mid.LessEq(L):
				lo = mid
			case H.LessEq(mid):
				hi = mid
			default:
				ev, err := eval(mid)
				if err != nil {
					return numeric.Rat{}, numeric.Rat{}, evals, err
				}
				probes++
				if note(mid, ev) {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		// Every point the window holds is a dyadic point of level at most
		// iters, so the final level-iters interval is the window itself.
	}
	sp := obs.FromContext(ctx)
	predicted := 0
	if accepted {
		predicted = 1
	}
	sp.AddInt("predicted", int64(predicted))
	sp.AddInt("probes", int64(probes))
	sp.AddInt("rescans", int64(rescans))

	// Snap the bracket onto the simplest rational inside it when that
	// rational carries one side's signature (see OptimizeCtx).
	lo, hi, sigHi := L, H, evH.Signature
	cand := numeric.SimplestBetween(lo, hi)
	ev, err := eval(cand)
	if err != nil {
		return numeric.Rat{}, numeric.Rat{}, evals, err
	}
	switch ev.Signature {
	case sigLo:
		lo = cand
	case sigHi:
		hi = cand
	}
	return lo, hi, evals, nil
}

// modelBracket is the production bracketPredictor. Let k be the first stage
// at which the decompositions at lo and at x differ. Every weight sum over
// path positions is affine in w1 (w2 = w_v − w1), so with w1 = lo + t·(hi−lo)
//
//	D(t) = w(C_k^x)·w(B_k^lo) − w(C_k^lo)·w(B_k^x)
//
// is at most quadratic in t, and D > 0 says B_k^lo still has the smaller α
// (α = w(C)/w(B)): the left side. Within a piece every α is a Möbius
// function of w1 and a signature change merges or splits one pair
// (Prop. 12), so the crossing is the + → − root of D. The root is guessed in
// float64, mapped to its level-iters interval j and confirmed with exact
// sign tests at the interval's interior ends, moving j where they disagree.
// A point with D = 0 carries neither side's pair (the union is the
// bottleneck there); the evaluations that verify the bracket settle it.
func modelBracket(evLo, evX *PathEval, lo, hi numeric.Rat, iters int) (int64, bool) {
	if iters > 62 { // 2^iters must fit an int64
		return 0, false
	}
	k := firstDifferentPair(evLo.Dec.Pairs, evX.Dec.Pairs)
	if k < 0 {
		return 0, false
	}
	cell := hi.Sub(lo)
	n := evLo.Path.N()
	// affine returns w(S) at t as s0 + s1·t.
	affine := func(S []int) (s0, s1 numeric.Rat) {
		if len(S) == 0 {
			return numeric.Zero, numeric.Zero
		}
		slope := int64(0)
		if S[0] == 0 {
			slope++
		}
		if S[len(S)-1] == n-1 {
			slope--
		}
		return evLo.Path.WeightOf(S), cell.MulInt(slope)
	}
	bl0, bl1 := affine(evLo.Dec.Pairs[k].B)
	cl0, cl1 := affine(evLo.Dec.Pairs[k].C)
	bx0, bx1 := affine(evX.Dec.Pairs[k].B)
	cx0, cx1 := affine(evX.Dec.Pairs[k].C)
	qa := cx1.Mul(bl1).Sub(cl1.Mul(bx1))
	qb := cx0.Mul(bl1).Add(cx1.Mul(bl0)).Sub(cl0.Mul(bx1)).Sub(cl1.Mul(bx0))
	qc := cx0.Mul(bl0).Sub(cl0.Mul(bx0))

	t, ok := fallingRoot(qa.Float64(), qb.Float64(), qc.Float64())
	if !ok {
		return 0, false
	}
	m := int64(1) << iters
	j := max(0, min(int64(t*float64(m)), m-1))
	// left reports the model's side of the dyadic point lo + i·h; the
	// cell's ends are left and right by definition, and only interior
	// points are sign-tested (an end's w(B) can vanish).
	left := func(i int64) bool {
		if i <= 0 || i >= m {
			return i <= 0
		}
		x := numeric.New(i, m)
		return qa.Mul(x).Add(qb).Mul(x).Add(qc).Sign() > 0
	}
	// Confirm [j, j+1] exactly. Where the float guess is off, gallop away
	// from it and halve back, so the sign tests grow with the log of the
	// error: two when the guess is right.
	a, b, step := j, j+1, int64(1)
	for !left(a) {
		a, b, step = max(0, a-step), a, 2*step
	}
	for left(b) {
		a, b, step = b, min(m, b+step), 2*step
	}
	for b-a > 1 {
		if mid := a + (b-a)/2; left(mid) {
			a = mid
		} else {
			b = mid
		}
	}
	return a, true
}

// firstDifferentPair returns the first stage at which a and b pair
// different vertex sets, or -1 if there is none.
func firstDifferentPair(a, b []bottleneck.Pair) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if !slices.Equal(a[k].B, b[k].B) || !slices.Equal(a[k].C, b[k].C) {
			return k
		}
	}
	return -1
}

// fallingRoot returns the root of a·t² + b·t + c at which the polynomial
// turns from positive to negative, when it lies in [0, 1] (up to rounding).
func fallingRoot(a, b, c float64) (float64, bool) {
	var t float64
	if a == 0 {
		if b >= 0 {
			return 0, false
		}
		t = -c / b
	} else {
		disc := b*b - 4*a*c
		if disc <= 0 {
			return 0, false
		}
		// The cancellation-free pair of roots.
		q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
		r1, r2 := q/a, c/q
		if r2 < r1 {
			r1, r2 = r2, r1
		}
		// a > 0: positive, negative, positive — the smaller root falls.
		t = r1
		if a < 0 {
			t = r2
		}
	}
	const slack = 1e-9
	return t, t > -slack && t < 1+slack
}
