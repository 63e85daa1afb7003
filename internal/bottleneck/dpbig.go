package bottleneck

import (
	"math/big"

	"repro/internal/numeric"
)

// Arbitrary-precision overflow path for the DP passes.
//
// The fixed-width plan (dpfixed.go) admits an instance only while its cells
// provably fit 128 bits; λ and weights whose scaled integers reach 2^126 —
// rare, but reachable through the optimizer's breakpoint dust — land here. The fully normalized rational DP would serve them
// too, but its cost is dominated by gcd normalization on every cell update.
// This plan removes the gcds instead of the precision: with λ = P/Q and
// weights w_i = n_i/D (common denominator D, everything big.Int), every DP
// cost is an integer multiple of 1/(Q·D) —
//
//	select i: −P·n_i    charge i: Q·n_i    minimizer weight: n_i (unit 1/D)
//
// — so the passes run on raw big.Int adds and compares (a few machine words,
// no normalization), and only the final value is converted back to a
// canonical Rat. Exactness is untouched: the integers are the same rationals
// in a fixed-denominator representation.

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
	p, q := new(big.Int), new(big.Int)
	lambda.BigParts(p, q)
	nums := make([]*big.Int, len(c.ws))
	dens := make([]*big.Int, len(c.ws))
	d := big.NewInt(1)
	var tmp big.Int
	for i, w := range c.ws {
		nums[i], dens[i] = new(big.Int), new(big.Int)
		w.BigParts(nums[i], dens[i])
		tmp.GCD(nil, nil, d, dens[i])
		d.Mul(d, new(big.Int).Quo(dens[i], &tmp))
	}
	m := len(c.ws)
	pl := bigPlan{
		sel:       make([]*big.Int, m),
		charge:    make([]*big.Int, m),
		chargeSel: make([]*big.Int, m),
		wInt:      make([]*big.Int, m),
		qd:        new(big.Int).Mul(q, d),
		d:         d,
	}
	negP := new(big.Int).Neg(p)
	for i := range c.ws {
		n := new(big.Int).Quo(d, dens[i])
		n.Mul(n, nums[i])
		pl.wInt[i] = n
		pl.sel[i] = new(big.Int).Mul(negP, n)
		pl.charge[i] = new(big.Int).Mul(q, n)
	}
	for i := 0; i+1 < m; i++ {
		pl.chargeSel[i] = new(big.Int).Add(pl.charge[i], pl.sel[i+1])
	}
	return pl
}

// bigCell mirrors costW on big.Int. Cells are value-semantic: the pointed-to
// ints are never mutated after creation, so copying a cell is safe.
type bigCell struct {
	cost, wS *big.Int
	ok       bool
}

var bigZero = big.NewInt(0)

func bigCellZero() bigCell { return bigCell{cost: bigZero, wS: bigZero, ok: true} }

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

// add returns a + (deltaCost, deltaW); nil deltas mean zero. Cells with a
// nil wS (the membership sweeps track cost only) keep it nil.
func (a bigCell) add(deltaCost, deltaW *big.Int) bigCell {
	out := bigCell{cost: a.cost, wS: a.wS, ok: true}
	if deltaCost != nil {
		out.cost = new(big.Int).Add(a.cost, deltaCost)
	}
	if deltaW != nil && a.wS != nil {
		out.wS = new(big.Int).Add(a.wS, deltaW)
	}
	return out
}

// step applies one path/cycle DP transition: charge of vertex i when
// a ∨ cb, plus selection of vertex i+1 when cb.
func (pl bigPlan) step(cell bigCell, i, a, cb int) bigCell {
	var dc, dw *big.Int
	switch {
	case cb == 1 && a == 1:
		dc = pl.chargeSel[i]
	case cb == 1:
		// Selecting i+1 retro-charges i too: a==0 here, so s_{i+1}=1 is what
		// puts i into Γ(S).
		dc = pl.chargeSel[i]
	case a == 1:
		dc = pl.charge[i]
	}
	if cb == 1 {
		dw = pl.wInt[i+1]
	}
	return cell.add(dc, dw)
}

// toCostW converts a big cell back to canonical rationals (the only gcd of
// the whole pass).
func (pl bigPlan) toCostW(c bigCell) costW {
	if !c.ok {
		panic("bottleneck: infeasible big-int DP")
	}
	return costW{
		cost: numeric.FromBig(new(big.Rat).SetFrac(c.cost, pl.qd)),
		wS:   numeric.FromBig(new(big.Rat).SetFrac(c.wS, pl.d)),
		ok:   true,
	}
}

func (pl bigPlan) costRat(cost *big.Int) numeric.Rat {
	return numeric.FromBig(new(big.Rat).SetFrac(cost, pl.qd))
}

func (c dpComponent) pathValueBig(pl bigPlan) costW {
	m := len(c.order)
	var dp [2][2]bigCell
	dp[0][0] = bigCellZero()
	dp[0][1] = bigCell{cost: pl.sel[0], wS: pl.wInt[0], ok: true}
	for i := 0; i+1 < m; i++ {
		var ndp [2][2]bigCell
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if !dp[a][b].ok {
					continue
				}
				for cb := 0; cb < 2; cb++ {
					cand := pl.step(dp[a][b], i, a, cb)
					if cand.better(ndp[b][cb]) {
						ndp[b][cb] = cand
					}
				}
			}
		}
		dp = ndp
	}
	best := bigCell{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if !dp[a][b].ok {
				continue
			}
			var dc *big.Int
			if a == 1 {
				dc = pl.charge[m-1]
			}
			cand := dp[a][b].add(dc, nil)
			if cand.better(best) {
				best = cand
			}
		}
	}
	return pl.toCostW(best)
}

func (c dpComponent) cycleValueBig(pl bigPlan) costW {
	m := len(c.order)
	best := bigCell{}
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			var dp [2][2]bigCell
			init := bigCellZero()
			if s0 == 1 {
				init = init.add(pl.sel[0], pl.wInt[0])
			}
			if s1 == 1 {
				init = init.add(pl.sel[1], pl.wInt[1])
			}
			dp[s0][s1] = init
			for i := 1; i+1 < m; i++ {
				var ndp [2][2]bigCell
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if !dp[a][b].ok {
							continue
						}
						for cb := 0; cb < 2; cb++ {
							cand := pl.step(dp[a][b], i, a, cb)
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
					cand := dp[a][b]
					if a == 1 || s0 == 1 {
						cand = cand.add(pl.charge[m-1], nil)
					}
					if s1 == 1 || b == 1 {
						cand = cand.add(pl.charge[0], nil)
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

// pathMembershipBig mirrors pathMembership on big.Int: one forward and one
// backward sweep plus per-position gluing.
func (c dpComponent) pathMembershipBig(pl bigPlan) (numeric.Rat, []bool) {
	m := len(c.order)
	fwd := make([][2][2]bigCell, m)
	fwd[0][0][0] = bigCell{cost: bigZero, ok: true}
	fwd[0][0][1] = bigCell{cost: pl.sel[0], ok: true}
	for i := 0; i+1 < m; i++ {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if !fwd[i][a][b].ok {
					continue
				}
				for cb := 0; cb < 2; cb++ {
					cand := pl.step(fwd[i][a][b], i, a, cb)
					if membBetter(cand, fwd[i+1][b][cb]) {
						fwd[i+1][b][cb] = cand
					}
				}
			}
		}
	}
	bwd := make([][2][2]bigCell, m)
	for b := 0; b < 2; b++ {
		bwd[m-1][b][0] = bigCell{cost: bigZero, ok: true}
	}
	for i := m - 2; i >= 0; i-- {
		for b := 0; b < 2; b++ {
			for cb := 0; cb < 2; cb++ {
				best := bigCell{}
				for d := 0; d < 2; d++ {
					if !bwd[i+1][cb][d].ok {
						continue
					}
					cand := bwd[i+1][cb][d]
					if b == 1 || d == 1 {
						cand = bigCell{cost: new(big.Int).Add(cand.cost, pl.charge[i+1]), ok: true}
					}
					if membBetter(cand, best) {
						best = cand
					}
				}
				if best.ok {
					if cb == 1 {
						best = bigCell{cost: new(big.Int).Add(best.cost, pl.sel[i+1]), ok: true}
					}
					bwd[i][b][cb] = best
				}
			}
		}
	}
	atPos := func(i, bFixed int) bigCell {
		best := bigCell{}
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
					cost := new(big.Int).Add(fwd[i][a][b].cost, bwd[i][b][cb].cost)
					if a == 1 || cb == 1 {
						cost.Add(cost, pl.charge[i])
					}
					cand := bigCell{cost: cost, ok: true}
					if membBetter(cand, best) {
						best = cand
					}
				}
			}
		}
		return best
	}
	globalMin := atPos(0, -1)
	members := make([]bool, m)
	for i := 0; i < m; i++ {
		with := atPos(i, 1)
		members[i] = with.ok && with.cost.Cmp(globalMin.cost) == 0
	}
	return pl.costRat(globalMin.cost), members
}

// cycleMembershipBig mirrors cycleMembership on big.Int.
func (c dpComponent) cycleMembershipBig(pl bigPlan) (numeric.Rat, []bool) {
	m := len(c.order)
	globalMin := bigCell{}
	memberMin := make([]bigCell, m)

	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			fwd := make([][2][2]bigCell, m)
			init := bigCell{cost: bigZero, ok: true}
			if s0 == 1 {
				init = bigCell{cost: new(big.Int).Set(pl.sel[0]), ok: true}
			}
			if s1 == 1 {
				init = bigCell{cost: new(big.Int).Add(init.cost, pl.sel[1]), ok: true}
			}
			fwd[1][s0][s1] = init
			for i := 1; i+1 < m; i++ {
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if !fwd[i][a][b].ok {
							continue
						}
						for cb := 0; cb < 2; cb++ {
							cand := pl.step(fwd[i][a][b], i, a, cb)
							if membBetter(cand, fwd[i+1][b][cb]) {
								fwd[i+1][b][cb] = cand
							}
						}
					}
				}
			}
			bwd := make([][2][2]bigCell, m)
			for b := 0; b < 2; b++ {
				for cb := 0; cb < 2; cb++ {
					cost := new(big.Int)
					if cb == 1 {
						cost.Add(cost, pl.sel[m-1])
					}
					if b == 1 || s0 == 1 {
						cost.Add(cost, pl.charge[m-1])
					}
					if s1 == 1 || cb == 1 {
						cost.Add(cost, pl.charge[0])
					}
					bwd[m-2][b][cb] = bigCell{cost: cost, ok: true}
				}
			}
			for i := m - 3; i >= 1; i-- {
				for b := 0; b < 2; b++ {
					for cb := 0; cb < 2; cb++ {
						best := bigCell{}
						for d := 0; d < 2; d++ {
							if !bwd[i+1][cb][d].ok {
								continue
							}
							cand := bwd[i+1][cb][d]
							if b == 1 || d == 1 {
								cand = bigCell{cost: new(big.Int).Add(cand.cost, pl.charge[i+1]), ok: true}
							}
							if membBetter(cand, best) {
								best = cand
							}
						}
						if best.ok {
							if cb == 1 {
								best = bigCell{cost: new(big.Int).Add(best.cost, pl.sel[i+1]), ok: true}
							}
							bwd[i][b][cb] = best
						}
					}
				}
			}
			glue := func(i, bFixed, cFixed int) bigCell {
				best := bigCell{}
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
							cost := new(big.Int).Add(fwd[i][a][b].cost, bwd[i][b][cb].cost)
							if a == 1 || cb == 1 {
								cost.Add(cost, pl.charge[i])
							}
							cand := bigCell{cost: cost, ok: true}
							if membBetter(cand, best) {
								best = cand
							}
						}
					}
				}
				return best
			}
			free := glue(1, -1, -1)
			if membBetter(free, globalMin) {
				globalMin = free
			}
			update := func(i int, v bigCell) {
				if membBetter(v, memberMin[i]) {
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
		members[i] = memberMin[i].ok && memberMin[i].cost.Cmp(globalMin.cost) == 0
	}
	return pl.costRat(globalMin.cost), members
}

// membBetter compares membership cells by cost alone (wS may be nil there).
func membBetter(a, b bigCell) bool {
	if !b.ok {
		return a.ok
	}
	return a.ok && a.cost.Cmp(b.cost) < 0
}
