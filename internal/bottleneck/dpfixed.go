package bottleneck

import (
	"math/big"

	"repro/internal/numeric"
)

// The fixed-width plan: the DP passes' integers (dp.go) in 128-bit cells.
//
// Every DP value — prefix, suffix and glue sum alike — adds at most one
// selection term and one charge term per vertex, so its magnitude is at most
// (|p|+q)·Σ|n_i|, and a weight sum at most Σ|n_i|. fixedPlanFor admits an
// instance exactly when that bound and the cost denominator q·D are both
// below 2^numeric.FixedBits = 2^126, the max-flow's one-bound rule
// (maxflow.fixedCells): every cell then fits a numeric.Int128 with a bit to
// spare, cell adds need no overflow checks, and a pass allocates nothing
// beyond its plan, which lives in a dpScratch. The integers are scaled on
// int64 parts when λ, every weight and D fit int64, and in math/big
// otherwise. Instances past the bound run on the big.Int plan (dpbig.go).

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

// fixedCell is the fixed-width value-pass cell: costW on 128-bit integers.
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

// advance is dpArith's advance: with s_{i+1} = 1 both predecessors take the
// same delta, so the better of them wins outright.
func (pl *fixedPlan) advance(dp *[2][2]fixedCell, from, to int) {
	for i := from; i < to; i++ {
		charge, chargeSel, w := pl.charge[i], pl.chargeSel[i], pl.wInt[i+1]
		prev := *dp
		for b := 0; b < 2; b++ {
			x0, x1 := prev[0][b], prev[1][b]
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
		}
	}
}

func (pl *fixedPlan) seed(c *fixedCell, s0, s1 int) {
	*c = fixedCell{ok: true}
	if s0 == 1 {
		c.cost, c.wS = pl.sel[0], pl.wInt[0]
	}
	if s1 == 1 {
		c.cost, c.wS = c.cost.Add(pl.sel[1]), c.wS.Add(pl.wInt[1])
	}
}

func (pl *fixedPlan) seedVal(v *fixedVal, s0, s1 int) {
	var c fixedCell
	pl.seed(&c, s0, s1)
	*v = fixedVal{v: c.cost, ok: true}
}

func (pl *fixedPlan) chargeVal(v *fixedVal, i int) { *v = v.plus(pl.charge[i]) }

func (pl *fixedPlan) close(dp *[2][2]fixedCell, last, first [2]bool, best *fixedCell) {
	m := len(pl.charge)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			cand := dp[a][b]
			if last[a] {
				cand.cost = cand.cost.Add(pl.charge[m-1])
			}
			if first[b] {
				cand.cost = cand.cost.Add(pl.charge[0])
			}
			if cand.better(*best) {
				*best = cand
			}
		}
	}
}

func (pl *fixedPlan) work(sc *dpScratch) *dpWork[fixedCell, fixedVal] { return &sc.fixed }

// toCostW converts a fixed-width cell back to canonical rationals.
func (pl *fixedPlan) toCostW(c *fixedCell) costW {
	if !c.ok {
		panic("bottleneck: infeasible fixed-width DP")
	}
	return costW{cost: numeric.FromInt128(c.cost, pl.qd), wS: numeric.FromInt128(c.wS, pl.d), ok: true}
}

// costRat converts a membership pass's minimum to a canonical Rat.
func (pl *fixedPlan) costRat(v fixedVal) numeric.Rat {
	return numeric.FromInt128(v.v, pl.qd)
}

// fixedVal is the fixed-width membership-pass value: a cost that may be
// infeasible.
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

func (pl *fixedPlan) forward(dp *[2][2]fixedVal, i int) {
	x00, x01, x10, x11 := dp[0][0], dp[0][1], dp[1][0], dp[1][1]
	dp[0][0] = minVal(x00, x10.plus(pl.charge[i]))
	dp[0][1] = minVal(x00, x10).plus(pl.chargeSel[i])
	dp[1][0] = minVal(x01, x11.plus(pl.charge[i]))
	dp[1][1] = minVal(x01, x11).plus(pl.chargeSel[i])
}

func (pl *fixedPlan) backward(suffix [][2][2]fixedVal, first int) {
	for i := len(suffix) - 2; i >= first; i-- {
		next, prev := &suffix[i+1], &suffix[i]
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
}

func (pl *fixedPlan) glue(fwd, bwd *[2][2]fixedVal, i int, selected bool, least *fixedVal) {
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if selected && b == 0 || !fwd[a][b].ok {
				continue
			}
			for cb := 0; cb < 2; cb++ {
				if !bwd[b][cb].ok {
					continue
				}
				cand := fixedVal{v: fwd[a][b].v.Add(bwd[b][cb].v), ok: true}
				if a == 1 || cb == 1 {
					cand.v = cand.v.Add(pl.charge[i])
				}
				if cand.better(*least) {
					*least = cand
				}
			}
		}
	}
}
