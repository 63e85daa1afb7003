package bottleneck

import (
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// randComponent draws a path or cycle component with weights spanning the
// regimes the scaled plan must survive: small integers, bisection-dust
// denominators (the 2^-48-scale rationals of breakpoint bisection), and
// magnitudes beyond int64.
func randComponent(rng *rand.Rand, cycle bool) dpComponent {
	m := rng.Intn(6) + 2
	if cycle {
		m = rng.Intn(5) + 3
	}
	ws := make([]numeric.Rat, m)
	for i := range ws {
		switch rng.Intn(3) {
		case 0:
			ws[i] = numeric.New(int64(rng.Intn(50)+1), int64(rng.Intn(9)+1))
		case 1: // dust denominator
			ws[i] = numeric.New(int64(rng.Intn(1<<20)+1), 1).Div(numeric.New(1<<31, 1)).Add(numeric.One)
		default: // built from operands past int64
			ws[i] = numeric.New(1<<62, int64(rng.Intn(7)+1)).Mul(numeric.New(int64(rng.Intn(100)+1), 1<<61))
		}
	}
	return dpComponent{order: iota0(m), ws: ws, cycle: cycle}
}

func randLambda(rng *rand.Rand) numeric.Rat {
	// λ ∈ (0, 1] with an occasionally dusty denominator.
	lam := numeric.New(int64(rng.Intn(99)+1), 100)
	if rng.Intn(2) == 0 {
		lam = lam.Mul(numeric.New(int64(rng.Intn(1<<20)+1), 1<<21)).Add(numeric.New(1, 97))
	}
	return lam
}

// TestBigPlanMatchesRatReference proves the gcd-free big.Int passes compute
// exactly the fully-normalized rational reference on both shapes, for both
// the value pass and the membership sweep. Zero tolerance: the big plan is
// the live execution path (dp.go routes through it whenever the fixed-width
// plan's bound rejects an instance), the Rat passes of dpref_test.go are
// the reference it must reproduce.
func TestBigPlanMatchesRatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		cycle := rng.Intn(2) == 0
		c := randComponent(rng, cycle)
		lambda := randLambda(rng)
		pl := c.bigPlanFor(lambda)
		sel := c.selCosts(lambda)

		var wantVal, gotVal costW
		var wantMin, gotMin numeric.Rat
		var wantMem, gotMem []bool
		if cycle {
			wantVal, gotVal = c.cycleValue(sel), c.cycleValueBig(pl)
			wantMin, wantMem = c.cycleMembership(lambda)
			gotMin, gotMem = c.cycleMembershipBig(pl)
		} else {
			wantVal, gotVal = c.pathValue(sel), c.pathValueBig(pl)
			wantMin, wantMem = c.pathMembership(lambda)
			gotMin, gotMem = c.pathMembershipBig(pl)
		}
		if !gotVal.ok || !gotVal.cost.Equal(wantVal.cost) || !gotVal.wS.Equal(wantVal.wS) {
			t.Fatalf("trial %d (cycle=%v, λ=%v): value big (%v, %v) != ref (%v, %v)",
				trial, cycle, lambda, gotVal.cost, gotVal.wS, wantVal.cost, wantVal.wS)
		}
		if !gotMin.Equal(wantMin) {
			t.Fatalf("trial %d (cycle=%v, λ=%v): membership min %v != ref %v",
				trial, cycle, lambda, gotMin, wantMin)
		}
		for i := range wantMem {
			if gotMem[i] != wantMem[i] {
				t.Fatalf("trial %d (cycle=%v, λ=%v): member[%d] = %v != ref %v",
					trial, cycle, lambda, i, gotMem[i], wantMem[i])
			}
		}

		// When the fixed-width plan admits the instance, it must agree with
		// both.
		if fp, ok := freshPlan(c, lambda); ok {
			var iv costW
			if cycle {
				iv = c.cycleValueFixed(&fp)
			} else {
				iv = c.pathValueFixed(&fp)
			}
			if !iv.cost.Equal(wantVal.cost) || !iv.wS.Equal(wantVal.wS) {
				t.Fatalf("trial %d: fixed-width plan value (%v, %v) != ref (%v, %v)",
					trial, iv.cost, iv.wS, wantVal.cost, wantVal.wS)
			}
		}
	}
}

// TestDPOraclePlanMemo verifies the per-λ plan memo returns correct results
// across alternating λ values (the memo must invalidate, not leak a stale
// plan into a different λ).
func TestDPOraclePlanMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		o := &dpOracle{sc: new(dpScratch), comps: []dpComponent{
			randComponent(rng, false),
			randComponent(rng, rng.Intn(2) == 0),
		}}
		l1, l2 := randLambda(rng), randLambda(rng)
		fresh := func(lambda numeric.Rat) (numeric.Rat, numeric.Rat, []int) {
			fo := &dpOracle{comps: o.comps, sc: new(dpScratch)}
			v, w := fo.value(lambda)
			return v, w, fo.maximal(lambda)
		}
		for _, lambda := range []numeric.Rat{l1, l2, l1, l2, l1} {
			wantV, wantW, wantS := fresh(lambda)
			gotV, gotW := o.value(lambda)
			gotS := o.maximal(lambda)
			if !gotV.Equal(wantV) || !gotW.Equal(wantW) {
				t.Fatalf("trial %d λ=%v: memoized value (%v, %v) != fresh (%v, %v)",
					trial, lambda, gotV, gotW, wantV, wantW)
			}
			if len(gotS) != len(wantS) {
				t.Fatalf("trial %d λ=%v: maximal %v != fresh %v", trial, lambda, gotS, wantS)
			}
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Fatalf("trial %d λ=%v: maximal %v != fresh %v", trial, lambda, gotS, wantS)
				}
			}
		}
	}
}
