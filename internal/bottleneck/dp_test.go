package bottleneck

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// buildComponent wraps a graph that is one path or cycle into a dpComponent.
func buildComponent(t *testing.T, g *graph.Graph) dpComponent {
	t.Helper()
	o, err := newDPOracle(g)
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
		pl, ok := c.fixedPlanFor(lambda)
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
		pl, ok := c.fixedPlanFor(lambda)
		if !ok {
			t.Fatalf("trial %d: fixed-width plan should fit", trial)
		}
		var iMin numeric.Int128
		var rMin numeric.Rat
		var iMem, rMem []bool
		if c.cycle {
			iMin, iMem = c.cycleMembershipFixed(&pl)
			rMin, rMem = c.cycleMembership(lambda)
		} else {
			iMin, iMem = c.pathMembershipFixed(&pl)
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

func TestIntPlanRejectsHugeDenominators(t *testing.T) {
	g := graph.Path([]numeric.Rat{numeric.New(1, 1<<40), numeric.New(1, (1<<40)+1), numeric.One})
	c := buildComponent(t, g)
	if _, ok := c.fixedPlanFor(numeric.New(1, 3)); ok {
		t.Fatal("expected fallback for huge common denominators")
	}
	// The rational path must still serve it.
	v := c.valuePass(numeric.New(1, 3))
	if !v.ok {
		t.Fatal("value pass failed")
	}
}

func TestDPOracleRejectsNonPathCycle(t *testing.T) {
	if _, err := newDPOracle(graph.Star(numeric.Ints(1, 1, 1, 1))); err == nil {
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
		dp, err := newDPOracle(g)
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
