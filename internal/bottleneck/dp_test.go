package bottleneck

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// buildComponent wraps a graph that is one path or cycle into a dpComponent.
func buildComponent(t *testing.T, g *graph.Graph) dpComponent {
	t.Helper()
	o, err := newDPOracle(g, new(dpScratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.comps) != 1 {
		t.Fatalf("expected one component, got %d", len(o.comps))
	}
	return o.comps[0]
}

func TestPathMembershipMatchesProbes(t *testing.T) {
	// The O(m) forward-backward membership must agree with the O(m²)
	// per-vertex forced-DP probes on random paths and λ values.
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 120; trial++ {
		m := rng.Intn(10) + 1
		g := graph.Path(graph.RandomWeights(rng, m, graph.WeightDist(rng.Intn(4))))
		c := buildComponent(t, g)
		lambda := numeric.New(int64(rng.Intn(20)+1), int64(rng.Intn(20)+1))
		gotMin, gotMembers := c.pathMembership(lambda)
		wantMin := c.minPath(lambda, -1)
		if !gotMin.Equal(wantMin) {
			t.Fatalf("trial %d: free min %v != probe %v (λ=%v, w=%v)",
				trial, gotMin, wantMin, lambda, g.Weights())
		}
		for i := range c.order {
			want := c.minPath(lambda, i).Equal(wantMin)
			if gotMembers[i] != want {
				t.Fatalf("trial %d: membership of %d = %v, probe %v (λ=%v, w=%v)",
					trial, i, gotMembers[i], want, lambda, g.Weights())
			}
		}
	}
}

func TestCycleMembershipMatchesProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 120; trial++ {
		m := rng.Intn(9) + 3
		g := graph.Ring(graph.RandomWeights(rng, m, graph.WeightDist(rng.Intn(4))))
		c := buildComponent(t, g)
		lambda := numeric.New(int64(rng.Intn(20)+1), int64(rng.Intn(20)+1))
		gotMin, gotMembers := c.cycleMembership(lambda)
		wantMin := c.minCycle(lambda, -1)
		if !gotMin.Equal(wantMin) {
			t.Fatalf("trial %d: free min %v != probe %v (λ=%v, w=%v)",
				trial, gotMin, wantMin, lambda, g.Weights())
		}
		for i := range c.order {
			want := c.minCycle(lambda, i).Equal(wantMin)
			if gotMembers[i] != want {
				t.Fatalf("trial %d: membership of %d = %v, probe %v (λ=%v, w=%v)",
					trial, i, gotMembers[i], want, lambda, g.Weights())
			}
		}
	}
}

func TestIntValuePassMatchesRationalPass(t *testing.T) {
	// The fixed-width plan and the exact rational pass must agree bit-for-bit
	// on both value and minimizer weight, for paths and cycles.
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(10) + 3
		var g *graph.Graph
		if trial%2 == 0 {
			g = graph.Ring(graph.RandomWeights(rng, m, graph.WeightDist(rng.Intn(4))))
		} else {
			g = graph.Path(graph.RandomWeights(rng, m, graph.WeightDist(rng.Intn(4))))
		}
		c := buildComponent(t, g)
		lambda := numeric.New(int64(rng.Intn(50)+1), int64(rng.Intn(50)+1))
		pl, ok := freshPlan(c, lambda)
		if !ok {
			t.Fatalf("trial %d: fixed-width plan should fit for small weights", trial)
		}
		var gotInt, gotRat costW
		sel := c.selCosts(lambda)
		if c.cycle {
			gotInt, gotRat = c.cycleValueFixed(&pl), c.cycleValue(sel)
		} else {
			gotInt, gotRat = c.pathValueFixed(&pl), c.pathValue(sel)
		}
		if !gotInt.cost.Equal(gotRat.cost) || !gotInt.wS.Equal(gotRat.wS) {
			t.Fatalf("trial %d: int (%v, %v) != rat (%v, %v) (λ=%v, w=%v, cycle=%v)",
				trial, gotInt.cost, gotInt.wS, gotRat.cost, gotRat.wS, lambda, g.Weights(), c.cycle)
		}
	}
}

func TestIntMembershipMatchesRationalMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(10) + 3
		var g *graph.Graph
		if trial%2 == 0 {
			g = graph.Ring(graph.RandomWeights(rng, m, graph.WeightDist(rng.Intn(4))))
		} else {
			g = graph.Path(graph.RandomWeights(rng, m, graph.WeightDist(rng.Intn(4))))
		}
		c := buildComponent(t, g)
		lambda := numeric.New(int64(rng.Intn(50)+1), int64(rng.Intn(50)+1))
		pl, ok := freshPlan(c, lambda)
		if !ok {
			t.Fatalf("trial %d: fixed-width plan should fit", trial)
		}
		var iMin numeric.Int128
		var rMin numeric.Rat
		var iMem, rMem []bool
		if c.cycle {
			iMin, iMem = c.cycleMembershipFixed(&pl, new(dpScratch))
			rMin, rMem = c.cycleMembership(lambda)
		} else {
			iMin, iMem = c.pathMembershipFixed(&pl, new(dpScratch))
			rMin, rMem = c.pathMembership(lambda)
		}
		if !pl.costRat(iMin).Equal(rMin) {
			t.Fatalf("trial %d: min %v != %v (λ=%v, w=%v)", trial, iMin, rMin, lambda, g.Weights())
		}
		for i := range iMem {
			if iMem[i] != rMem[i] {
				t.Fatalf("trial %d: membership of %d differs (λ=%v, w=%v)", trial, i, lambda, g.Weights())
			}
		}
	}
}

// TestIntPlanRejectsHugeDenominators pins the one admission bound on
// instances off int64. A common denominator D, a λ part or a weight part
// past int64 is scaled in math/big and admitted to the fixed-width plan
// while (|p|+q)·Σ|n_i| and q·D stay below 2^126; a denominator so huge that
// q·D reaches 2^126, or a bound that does, still takes the big.Int plan.
// Every case matches the Rat reference, value and membership alike.
func TestIntPlanRejectsHugeDenominators(t *testing.T) {
	cases := []struct {
		name   string
		ws     []numeric.Rat
		lambda numeric.Rat
		fixed  bool
	}{
		// D = 2^40·(2^40+1) ≈ 2^80.
		{"D past int64", []numeric.Rat{numeric.New(1, 1<<40), numeric.New(1, (1<<40)+1), numeric.One}, numeric.New(1, 3), true},
		// p and q near 2^102 over small integer weights.
		{"λ parts past int64", numeric.Ints(3, 5, 7, 2),
			numeric.New(1<<62+1, 1<<62+3).Mul(numeric.New(1<<40+1, 1<<40+7)), true},
		// numerators near 3·2^62 with D = 1.
		{"weight parts past int64", []numeric.Rat{numeric.FromInt(1<<62 + 1).MulInt(3), numeric.FromInt(5), numeric.FromInt(1<<62 + 5).MulInt(2)},
			numeric.New(2, 7), true},
		// D = (2^62−57)(2^62−87) ≈ 2^124: q·D = 4·D just below 2^126.
		{"q·D just below 2^126", []numeric.Rat{numeric.New(1, 1<<62-57), numeric.New(1, 1<<62-87), numeric.New(2, 1<<62-57)},
			numeric.New(1, 4), true},
		// the same weights at q = 5: q·D past 2^126.
		{"q·D past 2^126", []numeric.Rat{numeric.New(1, 1<<62-57), numeric.New(1, 1<<62-87), numeric.New(2, 1<<62-57)},
			numeric.New(1, 5), false},
		// D ≈ 2^186: past 2^126 before q is looked at.
		{"D past 2^126", []numeric.Rat{numeric.New(1, 1<<62-57), numeric.New(1, 1<<62-87), numeric.New(1, 1<<62-93)},
			numeric.New(1, 2), false},
		// a numerator near 2^127 with D = 1: one n_i past 2^126.
		{"n_i past 2^126", []numeric.Rat{numeric.FromInt(1<<62 + 1).MulInt(1<<62 + 3).MulInt(8), numeric.One, numeric.One},
			numeric.New(1, 2), false},
		// a numerator near 2^124 with D = 1 and |p|+q = 12: the bound passes 2^126.
		{"bound past 2^126", []numeric.Rat{numeric.FromInt(1<<62 + 1).MulInt(1<<62 + 3), numeric.FromInt(5), numeric.One},
			numeric.New(5, 7), false},
	}
	for _, tc := range cases {
		for _, cycle := range []bool{false, true} {
			c := dpComponent{order: iota0(len(tc.ws)), ws: tc.ws, cycle: cycle}
			pl, ok := freshPlan(c, tc.lambda)
			if ok != tc.fixed || (ok && !pl.wide) {
				t.Fatalf("%s (cycle=%v): admitted=%v wide=%v, want admitted=%v on math/big scaling", tc.name, cycle, ok, pl.wide, tc.fixed)
			}
			var tally arithTally
			v := c.valuePass(tc.lambda, new(dpScratch), &tally)
			var want costW
			if cycle {
				want = c.cycleValue(c.selCosts(tc.lambda))
			} else {
				want = c.pathValue(c.selCosts(tc.lambda))
			}
			if !v.ok || !v.cost.Equal(want.cost) || !v.wS.Equal(want.wS) {
				t.Fatalf("%s (cycle=%v): value pass (%v, %v), reference (%v, %v)", tc.name, cycle, v.cost, v.wS, want.cost, want.wS)
			}
			if tc.fixed && tally != (arithTally{fixedPlans: 1}) || !tc.fixed && tally != (arithTally{bigPlans: 1}) {
				t.Fatalf("%s (cycle=%v): value pass tally %+v, want fixed=%v", tc.name, cycle, tally, tc.fixed)
			}
			checkPlansAgainstRat(t, c, tc.lambda)
		}
	}
}

func TestDPOracleRejectsNonPathCycle(t *testing.T) {
	if _, err := newDPOracle(graph.Star(numeric.Ints(1, 1, 1, 1)), new(dpScratch)); err == nil {
		t.Fatal("star accepted by DP oracle")
	}
}

func TestDPOracleMatchesBruteOracleOnMixedComponents(t *testing.T) {
	// A graph with one cycle component and two path components.
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 50; trial++ {
		g := graph.New(9)
		ws := graph.RandomWeights(rng, 9, graph.DistUniform)
		for v, w := range ws {
			g.MustSetWeight(v, w)
		}
		// cycle 0-1-2, path 3-4-5, path 6-7, isolated 8
		g.MustAddEdge(0, 1)
		g.MustAddEdge(1, 2)
		g.MustAddEdge(2, 0)
		g.MustAddEdge(3, 4)
		g.MustAddEdge(4, 5)
		g.MustAddEdge(6, 7)
		dp, err := newDPOracle(g, new(dpScratch))
		if err != nil {
			t.Fatal(err)
		}
		brute, err := newBruteOracle(g)
		if err != nil {
			t.Fatal(err)
		}
		lambda := numeric.New(int64(rng.Intn(30)+1), int64(rng.Intn(10)+1))
		gotVal, gotWS := dp.value(lambda)
		wantVal, wantWS := brute.value(lambda)
		gotSet := dp.maximal(lambda)
		wantSet := brute.maximal(lambda)
		if !gotVal.Equal(wantVal) {
			t.Fatalf("trial %d: value %v != %v (λ=%v, w=%v)", trial, gotVal, wantVal, lambda, ws)
		}
		if !gotWS.Equal(wantWS) {
			t.Fatalf("trial %d: minimizer weight %v != %v (λ=%v, w=%v)", trial, gotWS, wantWS, lambda, ws)
		}
		if len(gotSet) != len(wantSet) {
			t.Fatalf("trial %d: maximal minimizer %v != %v (λ=%v)", trial, gotSet, wantSet, lambda)
		}
		for i := range gotSet {
			if gotSet[i] != wantSet[i] {
				t.Fatalf("trial %d: maximal minimizer %v != %v (λ=%v)", trial, gotSet, wantSet, lambda)
			}
		}
	}
}

// scratchComponent draws a path or cycle of m vertices, ordered from first,
// mixing small integers, k/2^48 dust and weights with parts past int64, so
// that both plans and both scalings of the fixed-width plan occur.
func scratchComponent(rng *rand.Rand, m, first int, cycle bool) dpComponent {
	ws := make([]numeric.Rat, m)
	for i := range ws {
		switch rng.Intn(6) {
		case 0:
			ws[i] = numeric.New(int64(rng.Intn(1<<20)+1), 1<<48).Add(numeric.One)
		case 1:
			ws[i] = numeric.FromInt(1<<62 + int64(rng.Intn(9))).MulInt(int64(rng.Intn(4) + 2))
		default:
			ws[i] = numeric.New(int64(rng.Intn(40)+1), int64(rng.Intn(6)+1))
		}
	}
	order := make([]int, m)
	for i := range order {
		order[i] = first + i
	}
	return dpComponent{order: order, ws: ws, cycle: cycle}
}

// membershipPass runs c's membership pass at λ through sc on the plan dp.go
// would pick, and copies the result out of sc.
func membershipPass(c dpComponent, lambda numeric.Rat, sc *dpScratch) (numeric.Rat, []bool) {
	sc.cells = resize(sc.cells, 4*len(c.ws))
	pl, fixed := c.fixedPlanFor(lambda, sc.cells)
	var min numeric.Rat
	var members []bool
	switch {
	case fixed && c.cycle:
		var v numeric.Int128
		v, members = c.cycleMembershipFixed(&pl, sc)
		min = pl.costRat(v)
	case fixed:
		var v numeric.Int128
		v, members = c.pathMembershipFixed(&pl, sc)
		min = pl.costRat(v)
	case c.cycle:
		min, members = c.cycleMembershipBig(c.bigPlanFor(lambda))
	default:
		min, members = c.pathMembershipBig(c.bigPlanFor(lambda))
	}
	return min, append([]bool(nil), members...)
}

// TestScratchReuseMatchesFreshBuffers referees the reuse of DP buffers. One
// scratch serves every pass of the test — value and membership passes,
// paths and cycles interleaved, sizes growing and shrinking, fixed-width
// and big.Int plans — and each result must equal the same pass on fresh
// buffers. Each trial also runs an oracle's value at λ, then one-off value
// and membership passes of another component, then the oracle's maximal at
// the same λ, whose memoized plans must survive them; and, on paths, the
// split solver's transfer, whole-path value and membership passes, whose
// transfer must not change when the scratch is reused.
func TestScratchReuseMatchesFreshBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sc := new(dpScratch)
	sizes := []int{3, 17, 5, 40, 4, 29, 3, 12, 33, 6}
	kinds := map[[2]bool]int{} // {fixed, wide} of the one-off value passes' plans
	for trial := 0; trial < 300; trial++ {
		m := sizes[trial%len(sizes)] + rng.Intn(3)
		c := scratchComponent(rng, m, 0, trial%3 == 1)
		lambda := randLambda(rng)
		if trial%5 == 0 {
			lambda = lambda.Mul(numeric.New(1<<62+1, 1<<62+3)) // parts past int64
		}
		if pl, ok := freshPlan(c, lambda); ok {
			kinds[[2]bool{true, pl.wide}]++
		} else {
			kinds[[2]bool{false, false}]++
		}

		var got, want arithTally
		if v, w := c.valuePass(lambda, sc, &got), c.valuePass(lambda, new(dpScratch), &want); !v.cost.Equal(w.cost) || !v.wS.Equal(w.wS) || got != want {
			t.Fatalf("trial %d: value pass through the scratch (%v, %v) %+v, fresh (%v, %v) %+v", trial, v.cost, v.wS, got, w.cost, w.wS, want)
		}
		gotMin, gotMem := membershipPass(c, lambda, sc)
		if wantMin, wantMem := membershipPass(c, lambda, new(dpScratch)); !gotMin.Equal(wantMin) || fmt.Sprint(gotMem) != fmt.Sprint(wantMem) {
			t.Fatalf("trial %d (cycle=%v, m=%d): membership through the scratch (%v, %v), fresh (%v, %v)",
				trial, c.cycle, m, gotMin, gotMem, wantMin, wantMem)
		}

		other := scratchComponent(rng, sizes[(trial+3)%len(sizes)], m, !c.cycle)
		o := &dpOracle{comps: []dpComponent{c, other}, sc: sc}
		fresh := &dpOracle{comps: o.comps, sc: new(dpScratch)}
		gv, gw := o.value(lambda)
		other.valuePass(lambda, sc, &got)
		membershipPass(other, lambda, sc)
		gs := o.maximal(lambda)
		fv, fw := fresh.value(lambda)
		if fs := fresh.maximal(lambda); !gv.Equal(fv) || !gw.Equal(fw) || fmt.Sprint(gs) != fmt.Sprint(fs) {
			t.Fatalf("trial %d: oracle through the scratch (%v, %v, %v), fresh (%v, %v, %v)", trial, gv, gw, gs, fv, fw, fs)
		}
		if o.tally != fresh.tally {
			t.Fatalf("trial %d: oracle built plans %+v, fresh %+v", trial, o.tally, fresh.tally)
		}

		if c.cycle {
			continue
		}
		s := NewSplitSolver(c.ws[1 : m-1])
		w1, w2 := c.ws[0], c.ws[m-1]
		tr := s.buildTransfer(lambda, sc)
		if ftr := s.buildTransfer(lambda, new(dpScratch)); (tr == nil) != (ftr == nil) || tr != nil && *tr != *ftr {
			t.Fatalf("trial %d: transfer through the scratch %+v, fresh %+v", trial, tr, ftr)
		}
		var kept interiorTransfer
		if tr != nil {
			kept = *tr
		}
		gv, gw = s.valueFull(tr, lambda, w1, w2, sc, &got)
		fv, fw = s.valueFull(tr, lambda, w1, w2, new(dpScratch), &want)
		gs, fs := s.fullMembers(lambda, w1, w2, sc, &got), s.fullMembers(lambda, w1, w2, new(dpScratch), &want)
		if !gv.Equal(fv) || !gw.Equal(fw) || fmt.Sprint(gs) != fmt.Sprint(fs) {
			t.Fatalf("trial %d: split passes through the scratch (%v, %v, %v), fresh (%v, %v, %v)", trial, gv, gw, gs, fv, fw, fs)
		}
		if tr != nil && *tr != kept {
			t.Fatalf("trial %d: a later pass through the scratch changed a built transfer", trial)
		}
	}
	for _, k := range [][2]bool{{true, false}, {true, true}, {false, false}} {
		if kinds[k] == 0 {
			t.Fatalf("no value pass on the plan {fixed, wide} = %v: %v", k, kinds)
		}
	}
}
