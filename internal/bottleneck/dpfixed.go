package bottleneck

import (
	"math/big"

	"repro/internal/numeric"
)

// Fixed-width exact path for the DP passes.
//
// For λ = p/q and component weights w_i = n_i/D (D the lcm of the weight
// denominators), every subproblem cost is an integer multiple of 1/(q·D)
// and every minimizer weight an integer multiple of 1/D:
//
//	select i: −p·n_i    charge i: q·n_i    minimizer weight: n_i
//
// Every DP value — prefix, suffix and glue sum alike — adds at most one
// selection term and one charge term per vertex, so its magnitude is at most
// (|p|+q)·Σ|n_i|, and a weight sum at most Σ|n_i|. fixedPlanFor admits an
// instance exactly when that bound and the cost denominator q·D are both
// below 2^numeric.FixedBits = 2^126, the max-flow's one-bound rule
// (maxflow.fixedCells): every cell then fits a numeric.Int128 with a bit to
// spare, cell adds need no overflow checks, and a pass allocates nothing
// beyond its plan and its sweep arrays, which live in a dpScratch. The
// integers are scaled on int64 parts when λ, every weight and D fit int64,
// and in math/big otherwise; they are the integers bigPlanFor forms. Only
// the final value is converted back to a canonical Rat. Instances past the
// bound run on the big.Int plan (dpbig.go). The normalized-Rat passes that
// both must reproduce bit for bit — pathValue, pathMembership and their
// cycle forms, which the comments below name — are test code in
// dpref_test.go; no production path runs DP cells on Rat.

// fixedPlan is the prepared fixed-width instance for one λ = p/q. Its
// slices point into the buffer fixedPlanFor was given.
type fixedPlan struct {
	sel       []numeric.Int128 // −p·n_i, units 1/(q·D)
	charge    []numeric.Int128 // q·n_i
	chargeSel []numeric.Int128 // charge_i + sel_{i+1}, the combined transition delta
	wInt      []numeric.Int128 // n_i, units 1/D
	qd, d     numeric.Int128   // q·D and D, the cost and weight denominators
	bound     numeric.Int128   // (|p|+q)·Σ|n_i|: no value of any pass exceeds it
	wide      bool             // scaled in math/big: λ, a weight or D is off int64
}

// fixedPlanFor prepares the fixed-width plan in buf, which holds at least
// four cells per vertex, or returns ok=false when (|p|+q)·Σ|n_i| or q·D
// reaches 2^numeric.FixedBits. It writes every cell a pass may read, so buf
// may hold anything on entry.
func (c dpComponent) fixedPlanFor(lambda numeric.Rat, buf []numeric.Int128) (fixedPlan, bool) {
	m := len(c.ws)
	pl := fixedPlan{
		sel:       buf[:m:m],
		charge:    buf[m : 2*m : 2*m],
		chargeSel: buf[2*m : 3*m : 3*m],
		wInt:      buf[3*m : 4*m : 4*m],
	}
	p, q, narrow, ok := pl.scaleInt64(c.ws, lambda)
	if !narrow {
		p, q, ok = pl.scaleBig(c.ws, lambda)
		pl.wide = true
	}
	if !ok {
		return fixedPlan{}, false
	}
	// Every product is at most the bound, below 2^126: the wrapped
	// products are exact.
	for i, n := range pl.wInt {
		pl.sel[i] = n.Mul128(p).Neg()
		pl.charge[i] = n.Mul128(q)
	}
	for i := 0; i+1 < m; i++ {
		pl.chargeSel[i] = pl.charge[i].Add(pl.sel[i+1])
	}
	pl.chargeSel[m-1] = numeric.Int128{} // no pass reads it; no stale cell either
	return pl, true
}

// scaleInt64 scales λ and the weights on their int64 parts: it sets n_i,
// D, q·D and the bound and returns p and q. narrow=false when λ, a weight or
// D is off int64 (scaleBig decides then); ok=false when the bound reaches
// 2^numeric.FixedBits. q·D < 2^126 holds by itself here.
func (pl *fixedPlan) scaleInt64(ws []numeric.Rat, lambda numeric.Rat) (p, q numeric.Int128, narrow, ok bool) {
	p64, q64, fits := lambda.Int64Parts()
	if !fits {
		return p, q, false, false
	}
	d := int64(1)
	for _, w := range ws {
		_, wd, fits := w.Int64Parts()
		if !fits {
			return p, q, false, false
		}
		if d, fits = numeric.LcmInt64(d, wd); !fits {
			return p, q, false, false
		}
	}
	var sum numeric.Int128
	for i, w := range ws {
		wn, wd, _ := w.Int64Parts()
		// |wn|·(D/wd) < 2^126, so the wrapped product is exact.
		n := numeric.Int128Of(wn).Mul(uint64(d / wd))
		pl.wInt[i] = n
		if sum = sum.Add(n.Abs()); sum.IsNeg() {
			return p, q, true, false // Σ|n_i| ≥ 2^127
		}
	}
	if pl.bound, ok = sum.MulBelow(numeric.AbsU64(p64)+uint64(q64), numeric.FixedBits); !ok {
		return p, q, true, false
	}
	pl.d = numeric.Int128Of(d)
	pl.qd = numeric.Int128Of(q64).Mul(uint64(d))
	return numeric.Int128Of(p64), numeric.Int128Of(q64), true, true
}

// scaleBig is scaleInt64 in math/big, for the instances whose λ, weights
// or D are off int64. It returns false as soon as D, q·D, an n_i or the
// bound reaches 2^numeric.FixedBits (an n_i that large puts the bound past
// it too).
func (pl *fixedPlan) scaleBig(ws []numeric.Rat, lambda numeric.Rat) (p, q numeric.Int128, ok bool) {
	var bp, bq, num, den, g, t big.Int
	d := big.NewInt(1)
	for _, w := range ws {
		w.BigParts(&num, &den)
		g.GCD(nil, nil, d, &den)
		if d.Mul(d, den.Quo(&den, &g)); d.BitLen() > numeric.FixedBits {
			return p, q, false
		}
	}
	lambda.BigParts(&bp, &bq)
	if t.Mul(&bq, d); t.BitLen() > numeric.FixedBits {
		return p, q, false
	}
	pl.qd, _ = numeric.Int128OfBig(&t)
	pl.d, _ = numeric.Int128OfBig(d)
	var sum big.Int
	for i, w := range ws {
		w.BigParts(&num, &den)
		if num.Mul(&num, den.Quo(d, &den)); num.BitLen() > numeric.FixedBits {
			return p, q, false
		}
		pl.wInt[i], _ = numeric.Int128OfBig(&num)
		sum.Add(&sum, num.Abs(&num))
	}
	t.Abs(&bp)
	if t.Mul(t.Add(&t, &bq), &sum); t.BitLen() > numeric.FixedBits {
		return p, q, false
	}
	pl.bound, _ = numeric.Int128OfBig(&t)
	// |p|, q < 2^126 unless every n_i is 0, where p's zero fallback serves.
	p, _ = numeric.Int128OfBig(&bp)
	q, _ = numeric.Int128OfBig(&bq)
	return p, q, true
}

// fixedCell mirrors costW on 128-bit integers.
type fixedCell struct {
	cost, wS numeric.Int128
	ok       bool
}

func (a fixedCell) better(b fixedCell) bool {
	if !b.ok {
		return a.ok
	}
	if !a.ok {
		return false
	}
	if a.cost != b.cost {
		return a.cost.Less(b.cost)
	}
	return b.wS.Less(a.wS)
}

// advance moves the forward (cost, weight) DP one position along, in
// place: from the cells keyed (s_{i-1}, s_i) to those keyed (s_i, s_{i+1}),
// charging vertex i when s_{i-1} ∨ s_{i+1} and selecting vertex i+1 when
// s_{i+1}. It is the transition loop of pathValue unrolled: with
// s_{i+1} = 1 both predecessors take the same delta, so the better of them
// wins outright.
func (pl *fixedPlan) advance(dp *[2][2]fixedCell, i int) {
	charge, chargeSel, w := pl.charge[i], pl.chargeSel[i], pl.wInt[i+1]
	prev := *dp
	for b := 0; b < 2; b++ {
		x0, x1 := prev[0][b], prev[1][b]
		if !x0.ok || !x1.ok {
			// Only the first steps of a sweep meet infeasible cells.
			on := x0
			if x1.better(x0) {
				on = x1
			}
			if on.ok {
				on.cost, on.wS = on.cost.Add(chargeSel), on.wS.Add(w)
			}
			if x1.ok {
				x1.cost = x1.cost.Add(charge)
			}
			if x1.better(x0) {
				x0 = x1
			}
			dp[b][0], dp[b][1] = x0, on
			continue
		}
		oc, ow := x0.cost, x0.wS
		if lexLess(x1.cost, x1.wS, oc, ow) {
			oc, ow = x1.cost, x1.wS
		}
		fc, fw := x0.cost, x0.wS
		if c := x1.cost.Add(charge); lexLess(c, x1.wS, fc, fw) {
			fc, fw = c, x1.wS
		}
		dp[b][0] = fixedCell{cost: fc, wS: fw, ok: true}
		dp[b][1] = fixedCell{cost: oc.Add(chargeSel), wS: ow.Add(w), ok: true}
	}
}

// lexLess reports whether (c1, w1) precedes (c2, w2): lower cost first, then
// higher minimizer weight.
func lexLess(c1, w1, c2, w2 numeric.Int128) bool {
	if c1 != c2 {
		return c1.Less(c2)
	}
	return w2.Less(w1)
}

// toCostW converts a fixed-width cell back to canonical rationals.
func (pl *fixedPlan) toCostW(c fixedCell) costW {
	if !c.ok {
		panic("bottleneck: infeasible fixed-width DP")
	}
	return costW{cost: numeric.FromInt128(c.cost, pl.qd), wS: numeric.FromInt128(c.wS, pl.d), ok: true}
}

// costRat converts a cost in units of 1/(q·D) to a canonical Rat.
func (pl *fixedPlan) costRat(cost numeric.Int128) numeric.Rat {
	return numeric.FromInt128(cost, pl.qd)
}

func (c dpComponent) pathValueFixed(pl *fixedPlan) costW {
	m := len(c.order)
	var dp [2][2]fixedCell
	dp[0][0] = fixedCell{ok: true}
	dp[0][1] = fixedCell{cost: pl.sel[0], wS: pl.wInt[0], ok: true}
	for i := 0; i+1 < m; i++ {
		pl.advance(&dp, i)
	}
	best := fixedCell{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if !dp[a][b].ok {
				continue
			}
			cand := dp[a][b]
			if a == 1 {
				cand.cost = cand.cost.Add(pl.charge[m-1])
			}
			if cand.better(best) {
				best = cand
			}
		}
	}
	return pl.toCostW(best)
}

func (c dpComponent) cycleValueFixed(pl *fixedPlan) costW {
	m := len(c.order)
	best := fixedCell{}
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			var dp [2][2]fixedCell
			init := fixedCell{ok: true}
			if s0 == 1 {
				init.cost, init.wS = pl.sel[0], pl.wInt[0]
			}
			if s1 == 1 {
				init.cost = init.cost.Add(pl.sel[1])
				init.wS = init.wS.Add(pl.wInt[1])
			}
			dp[s0][s1] = init
			for i := 1; i+1 < m; i++ {
				pl.advance(&dp, i)
			}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if !dp[a][b].ok {
						continue
					}
					cand := dp[a][b]
					if a == 1 || s0 == 1 {
						cand.cost = cand.cost.Add(pl.charge[m-1])
					}
					if s1 == 1 || b == 1 {
						cand.cost = cand.cost.Add(pl.charge[0])
					}
					if cand.better(best) {
						best = cand
					}
				}
			}
		}
	}
	return pl.toCostW(best)
}

// fixedVal mirrors dpVal: a cost that may be infeasible. The membership
// sweeps compare costs alone.
type fixedVal struct {
	v  numeric.Int128
	ok bool
}

func (a fixedVal) better(b fixedVal) bool {
	if !b.ok {
		return a.ok
	}
	return a.ok && a.v.Less(b.v)
}

func (a fixedVal) plus(d numeric.Int128) fixedVal {
	if a.ok {
		a.v = a.v.Add(d)
	}
	return a
}

func minVal(a, b fixedVal) fixedVal {
	if b.better(a) {
		return b
	}
	return a
}

// forward is advance on cost-only values, in place: the prefix sweep of the
// membership passes.
func (pl *fixedPlan) forward(dp *[2][2]fixedVal, i int) {
	x00, x01, x10, x11 := dp[0][0], dp[0][1], dp[1][0], dp[1][1]
	dp[0][0] = minVal(x00, x10.plus(pl.charge[i]))
	dp[0][1] = minVal(x00, x10).plus(pl.chargeSel[i])
	dp[1][0] = minVal(x01, x11.plus(pl.charge[i]))
	dp[1][1] = minVal(x01, x11).plus(pl.chargeSel[i])
}

// backward moves the suffix sweep one position back: from the values keyed
// (s_{i+1}, s_{i+2}) in next to those keyed (s_i, s_{i+1}) in prev,
// charging vertex i+1 when s_i ∨ s_{i+2} and selecting it when s_{i+1}.
func (pl *fixedPlan) backward(next, prev *[2][2]fixedVal, i int) {
	for cb := 0; cb < 2; cb++ {
		y0, y1 := next[cb][0], next[cb][1]
		off := minVal(y0, y1.plus(pl.charge[i+1]))
		on := minVal(y0, y1).plus(pl.charge[i+1])
		if cb == 1 {
			off, on = off.plus(pl.sel[i+1]), on.plus(pl.sel[i+1])
		}
		prev[0][cb], prev[1][cb] = off, on
	}
}

// glue is the best total at position i over the prefix values fwd and the
// suffix values bwd there, adding vertex i's own charge [s_{i-1} ∨ s_{i+1}];
// bFixed and cFixed (when ≥ 0) pin s_i and s_{i+1}.
func (pl *fixedPlan) glue(fwd, bwd *[2][2]fixedVal, i, bFixed, cFixed int) fixedVal {
	best := fixedVal{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if (bFixed >= 0 && b != bFixed) || !fwd[a][b].ok {
				continue
			}
			for cb := 0; cb < 2; cb++ {
				if (cFixed >= 0 && cb != cFixed) || !bwd[b][cb].ok {
					continue
				}
				cand := fixedVal{v: fwd[a][b].v.Add(bwd[b][cb].v), ok: true}
				if a == 1 || cb == 1 {
					cand.v = cand.v.Add(pl.charge[i])
				}
				if cand.better(best) {
					best = cand
				}
			}
		}
	}
	return best
}

// pathMembershipFixed mirrors pathMembership on the fixed-width plan; the
// minimum is returned in units of 1/(q·D) (see costRat). The suffix sweep is
// stored in sc and the prefix sweep rolls along the gluing positions. The
// members slice is sc's, valid until its next pass.
func (c dpComponent) pathMembershipFixed(pl *fixedPlan, sc *dpScratch) (numeric.Int128, []bool) {
	m := len(c.order)
	sc.sweep = resize(sc.sweep, m)
	bwd := sc.sweep
	for b := 0; b < 2; b++ {
		bwd[m-1][b] = [2]fixedVal{{ok: true}, {}}
	}
	for i := m - 2; i >= 0; i-- {
		pl.backward(&bwd[i+1], &bwd[i], i)
	}
	var fwd [2][2]fixedVal
	fwd[0][0] = fixedVal{ok: true}
	fwd[0][1] = fixedVal{v: pl.sel[0], ok: true}
	globalMin := pl.glue(&fwd, &bwd[0], 0, -1, -1)
	sc.members = resize(sc.members, m)
	members := sc.members
	for i := 0; i < m; i++ {
		if i > 0 {
			pl.forward(&fwd, i-1)
		}
		with := pl.glue(&fwd, &bwd[i], i, 1, -1)
		members[i] = with.ok && with.v == globalMin.v
	}
	return globalMin.v, members
}

// cycleMembershipFixed mirrors cycleMembership on the fixed-width plan; the
// minimum is returned in units of 1/(q·D) (see costRat). As in the path
// pass, the suffix sweep is stored in sc and the prefix sweep rolls; the
// members slice is sc's, valid until its next pass.
func (c dpComponent) cycleMembershipFixed(pl *fixedPlan, sc *dpScratch) (numeric.Int128, []bool) {
	m := len(c.order)
	globalMin := fixedVal{}
	sc.memberMin = resize(sc.memberMin, m)
	memberMin := sc.memberMin
	clear(memberMin)
	update := func(i int, v fixedVal) {
		if v.better(memberMin[i]) {
			memberMin[i] = v
		}
	}
	sc.sweep = resize(sc.sweep, m)
	bwd := sc.sweep
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			for b := 0; b < 2; b++ {
				for cb := 0; cb < 2; cb++ {
					cell := fixedVal{ok: true}
					if cb == 1 {
						cell.v = pl.sel[m-1]
					}
					if b == 1 || s0 == 1 {
						cell.v = cell.v.Add(pl.charge[m-1])
					}
					if s1 == 1 || cb == 1 {
						cell.v = cell.v.Add(pl.charge[0])
					}
					bwd[m-2][b][cb] = cell
				}
			}
			for i := m - 3; i >= 1; i-- {
				pl.backward(&bwd[i+1], &bwd[i], i)
			}
			var fwd [2][2]fixedVal
			init := fixedVal{ok: true}
			if s0 == 1 {
				init.v = pl.sel[0]
			}
			if s1 == 1 {
				init.v = init.v.Add(pl.sel[1])
			}
			fwd[s0][s1] = init
			free := pl.glue(&fwd, &bwd[1], 1, -1, -1)
			if free.better(globalMin) {
				globalMin = free
			}
			if s0 == 1 {
				update(0, free)
			}
			if s1 == 1 {
				update(1, free)
			}
			for i := 2; i <= m-2; i++ {
				pl.forward(&fwd, i-1)
				update(i, pl.glue(&fwd, &bwd[i], i, 1, -1))
			}
			update(m-1, pl.glue(&fwd, &bwd[m-2], m-2, -1, 1))
		}
	}
	sc.members = resize(sc.members, m)
	members := sc.members
	for i := range members {
		members[i] = memberMin[i].ok && memberMin[i].v == globalMin.v
	}
	return globalMin.v, members
}
