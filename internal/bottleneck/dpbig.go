package bottleneck

import (
	"math/big"

	"repro/internal/numeric"
)

// The big.Int plan: the DP passes' integers (dp.go) in math/big, the
// overflow path of the fixed-width plan (dpfixed.go), which admits an
// instance only while its cells provably fit 128 bits. λ and weights whose
// scaled integers reach 2^126 — rare, but reachable through the optimizer's
// breakpoint dust — land here. The normalized-rational DP would serve them
// too, but its cost is dominated by gcd normalization on every cell update;
// this plan keeps the precision and drops the gcds.

// bigPlan is the prepared big.Int instance for one λ.
type bigPlan struct {
	sel       []*big.Int // −P·n_i
	charge    []*big.Int // Q·n_i
	chargeSel []*big.Int // charge_i + sel_{i+1}, the hot combined transition delta
	wInt      []*big.Int // n_i
	qd        *big.Int   // Q·D, the cost denominator
	d         *big.Int   // D, the weight denominator
}

// bigPlanFor prepares the big.Int representation; unlike fixedPlanFor it
// always succeeds. The returned plan's ints are read-only.
func (c dpComponent) bigPlanFor(lambda numeric.Rat) bigPlan {
	m := len(c.ws)
	pl := bigPlan{
		sel:       make([]*big.Int, m),
		charge:    make([]*big.Int, m),
		chargeSel: make([]*big.Int, m),
		wInt:      make([]*big.Int, m),
		qd:        new(big.Int),
		d:         big.NewInt(1),
	}
	var p, q, num, den, g big.Int
	for _, w := range c.ws {
		w.BigParts(&num, &den)
		g.GCD(nil, nil, pl.d, &den)
		pl.d.Mul(pl.d, den.Quo(&den, &g))
	}
	lambda.BigParts(&p, &q)
	pl.qd.Mul(&q, pl.d)
	p.Neg(&p)
	for i, w := range c.ws {
		w.BigParts(&num, &den)
		n := new(big.Int).Mul(&num, den.Quo(pl.d, &den))
		pl.wInt[i], pl.sel[i], pl.charge[i] = n, new(big.Int).Mul(&p, n), new(big.Int).Mul(&q, n)
	}
	for i := 0; i+1 < m; i++ {
		pl.chargeSel[i] = new(big.Int).Add(pl.charge[i], pl.sel[i+1])
	}
	return pl
}

// bigCell is the big.Int value-pass cell. Cells are value-semantic: the
// pointed-to ints are never mutated after creation, so copying a cell is
// safe.
type bigCell struct {
	cost, wS *big.Int
	ok       bool
}

func (a bigCell) better(b bigCell) bool {
	if !b.ok {
		return a.ok
	}
	if !a.ok {
		return false
	}
	if c := a.cost.Cmp(b.cost); c != 0 {
		return c < 0
	}
	return a.wS.Cmp(b.wS) > 0
}

// bigVal is the big.Int membership-pass value, value-semantic like bigCell.
type bigVal struct {
	v  *big.Int
	ok bool
}

func (a bigVal) better(b bigVal) bool {
	if !b.ok {
		return a.ok
	}
	return a.ok && a.v.Cmp(b.v) < 0
}

func (a bigVal) plus(d *big.Int) bigVal {
	if a.ok {
		a.v = new(big.Int).Add(a.v, d)
	}
	return a
}

func minBig(a, b bigVal) bigVal {
	if b.better(a) {
		return b
	}
	return a
}

func (pl *bigPlan) seed(c *bigCell, s0, s1 int) {
	*c = bigCell{cost: new(big.Int), wS: new(big.Int), ok: true}
	for i, s := range [2]int{s0, s1} {
		if s == 1 {
			c.cost.Add(c.cost, pl.sel[i])
			c.wS.Add(c.wS, pl.wInt[i])
		}
	}
}

func (pl *bigPlan) seedVal(v *bigVal, s0, s1 int) {
	var c bigCell
	pl.seed(&c, s0, s1)
	*v = bigVal{v: c.cost, ok: true}
}

func (pl *bigPlan) chargeVal(v *bigVal, i int) { *v = v.plus(pl.charge[i]) }

func (pl *bigPlan) close(dp *[2][2]bigCell, last, first [2]bool, best *bigCell) {
	m := len(pl.charge)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			cand := dp[a][b]
			if !cand.ok {
				continue
			}
			if last[a] {
				cand.cost = new(big.Int).Add(cand.cost, pl.charge[m-1])
			}
			if first[b] {
				cand.cost = new(big.Int).Add(cand.cost, pl.charge[0])
			}
			if cand.better(*best) {
				*best = cand
			}
		}
	}
}

func (pl *bigPlan) work(sc *dpScratch) *dpWork[bigCell, bigVal] { return &sc.big }

// advance is dpArith's advance: with s_{i+1} = 1 both predecessors take the
// same delta, so the better of them wins outright.
func (pl *bigPlan) advance(dp *[2][2]bigCell, from, to int) {
	for i := from; i < to; i++ {
		prev := *dp
		for b := 0; b < 2; b++ {
			x0, x1 := prev[0][b], prev[1][b]
			on := x0
			if x1.better(x0) {
				on = x1
			}
			if on.ok {
				on.cost, on.wS = new(big.Int).Add(on.cost, pl.chargeSel[i]), new(big.Int).Add(on.wS, pl.wInt[i+1])
			}
			if x1.ok {
				x1.cost = new(big.Int).Add(x1.cost, pl.charge[i])
			}
			if x1.better(x0) {
				x0 = x1
			}
			dp[b][0], dp[b][1] = x0, on
		}
	}
}

func (pl *bigPlan) forward(dp *[2][2]bigVal, i int) {
	x00, x01, x10, x11 := dp[0][0], dp[0][1], dp[1][0], dp[1][1]
	dp[0][0] = minBig(x00, x10.plus(pl.charge[i]))
	dp[0][1] = minBig(x00, x10).plus(pl.chargeSel[i])
	dp[1][0] = minBig(x01, x11.plus(pl.charge[i]))
	dp[1][1] = minBig(x01, x11).plus(pl.chargeSel[i])
}

func (pl *bigPlan) backward(suffix [][2][2]bigVal, first int) {
	for i := len(suffix) - 2; i >= first; i-- {
		next, prev := &suffix[i+1], &suffix[i]
		for cb := 0; cb < 2; cb++ {
			y0, y1 := next[cb][0], next[cb][1]
			off := minBig(y0, y1.plus(pl.charge[i+1]))
			on := minBig(y0, y1).plus(pl.charge[i+1])
			if cb == 1 {
				off, on = off.plus(pl.sel[i+1]), on.plus(pl.sel[i+1])
			}
			prev[0][cb], prev[1][cb] = off, on
		}
	}
}

// glue sums into one temporary and allocates only a new least.
func (pl *bigPlan) glue(fwd, bwd *[2][2]bigVal, i int, selected bool, least *bigVal) {
	var t big.Int
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if selected && b == 0 || !fwd[a][b].ok {
				continue
			}
			for cb := 0; cb < 2; cb++ {
				if !bwd[b][cb].ok {
					continue
				}
				t.Add(fwd[a][b].v, bwd[b][cb].v)
				if a == 1 || cb == 1 {
					t.Add(&t, pl.charge[i])
				}
				if !least.ok || t.Cmp(least.v) < 0 {
					*least = bigVal{v: new(big.Int).Set(&t), ok: true}
				}
			}
		}
	}
}

// toCostW converts a big cell back to canonical rationals (the only gcd of
// the whole pass).
func (pl *bigPlan) toCostW(c *bigCell) costW {
	if !c.ok {
		panic("bottleneck: infeasible big-int DP")
	}
	return costW{
		cost: numeric.FromBig(new(big.Rat).SetFrac(c.cost, pl.qd)),
		wS:   numeric.FromBig(new(big.Rat).SetFrac(c.wS, pl.d)),
		ok:   true,
	}
}

// costRat converts a membership pass's minimum to a canonical Rat.
func (pl *bigPlan) costRat(v bigVal) numeric.Rat {
	return numeric.FromBig(new(big.Rat).SetFrac(v.v, pl.qd))
}
