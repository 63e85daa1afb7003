package repro

import (
	"context"
	"strings"
	"testing"
)

// The facade test exercises the package-level tour end to end; detailed
// behavior is covered by the internal packages' suites.
func TestFacadeTour(t *testing.T) {
	ctx := context.Background()
	g := Ring(Ints(100, 1, 1, 1, 1, 1, 1, 1, 1))
	dec, err := Decompose(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ClassOf(0) != ClassB {
		t.Fatalf("heavy vertex class = %v", dec.ClassOf(0))
	}
	alloc, err := Allocate(ctx, g, WithDecomposition(dec))
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Utility(0).Equal(dec.Utility(g, 0)) {
		t.Fatal("allocation utility disagrees with Proposition 6")
	}
	ratio, err := IncentiveRatio(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio.Float64() < 1.6 || RatFromInt(2).Less(ratio) {
		t.Fatalf("incentive ratio = %v, expected in (1.6, 2]", ratio)
	}
}

func TestFacadeDynamicsAndSwarm(t *testing.T) {
	g := Path(Ints(1, 100, 2))
	dyn, err := RunDynamics(g, DynamicsOptions{MaxRounds: 500})
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := RunSwarm(g, SwarmConfig{Rounds: 501})
	if err != nil {
		t.Fatal(err)
	}
	for v := range dyn.Utilities {
		if dyn.Utilities[v] != swarm.Utilities[v] {
			t.Fatalf("dynamics and swarm disagree at %d", v)
		}
	}
}

func TestFacadeTheorem8AndFamily(t *testing.T) {
	g, v, err := LowerBoundFamily(1, RatFromInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := VerifyTheorem8(g, v, OptimizeOptions{Grid: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.LeqTwo || !verdict.Stages.AllChecksPass() {
		t.Fatalf("Theorem 8 verdict failed: ratio %v", verdict.Ratio)
	}
	limit := LowerBoundLimitRatio(1)
	if limit.String() != "3/2" {
		t.Fatalf("limit ratio = %v", limit)
	}
}

func TestFacadeWideSurface(t *testing.T) {
	g := Ring(Ints(8, 1, 1, 1, 1))

	// Parallel decomposition delegates for connected graphs.
	dp, err := Decompose(context.Background(), g, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Decompose(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if dp.StructureSignature() != ds.StructureSignature() {
		t.Fatal("parallel decomposition differs")
	}

	// Async swarm under delay.
	async, err := RunAsyncSwarm(g, AsyncSwarmConfig{Rounds: 2000, MaxDelay: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(async.Utilities) != g.N() {
		t.Fatal("async utilities shape wrong")
	}

	// Misreporting never gains (Theorem 10).
	u, err := MisreportUtility(g, 0, NewRat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	honest, err := MisreportUtility(g, 0, g.Weight(0))
	if err != nil {
		t.Fatal(err)
	}
	if honest.Less(u) {
		t.Fatalf("misreport gained: %v > %v", u, honest)
	}

	// General-graph search and coalition search.
	sr, err := SybilSearch(Star(Ints(1, 5, 5, 5)), 0, SybilSearchOptions{GridResolution: 4})
	if err != nil {
		t.Fatal(err)
	}
	if RatFromInt(2).Less(sr.Ratio) {
		t.Fatalf("star search ratio %v > 2", sr.Ratio)
	}
	pa, err := PairAttack(g, 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pa.CombinedRatio.Less(RatFromInt(1)) {
		t.Fatalf("coalition ratio %v < 1", pa.CombinedRatio)
	}

	// Swarm attack comparison at the facade level.
	ring, err := g.RingOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareSwarmAttack(g, SplitSpec{
		V:       0,
		Parts:   [][]int{{ring[1]}, {ring[len(ring)-1]}},
		Weights: []Rat{NewRat(4, 1), NewRat(4, 1)},
	}, SwarmConfig{Rounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Gain > 2.001 {
		t.Fatalf("swarm gain %v > 2", cmp.Gain)
	}

	// Analysis surface: curve, classification, x*, intervals, Theorem 10.
	curve, err := SampleCurve(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTheorem10(curve); err != nil {
		t.Fatal(err)
	}
	if _, err := ClassifyAlphaCurve(curve); err != nil {
		t.Fatal(err)
	}
	x, c, err := AlphaStar(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "Case B-3" || !x.Equal(RatFromInt(2)) {
		t.Fatalf("AlphaStar = (%v, %v)", x, c)
	}
	ivs, err := IntervalPartition(g, 0, 16, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 2 {
		t.Fatalf("intervals: %d", len(ivs))
	}

	// Graph I/O round trip through the facade.
	var buf strings.Builder
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatal("graph round trip failed")
	}
	_ = NewGraph(3)
	_ = Complete(Ints(1, 1, 1))
	_ = Path(Ints(1, 2))
	_ = Fig1Graph()
}

func TestFacadeSybilSplit(t *testing.T) {
	g := Ring(Ints(4, 1, 2, 3))
	u, err := AttackUtility(g, SplitSpec{
		V:       0,
		Parts:   [][]int{{1}, {3}},
		Weights: []Rat{NewRat(2, 1), NewRat(2, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.Sign() <= 0 {
		t.Fatalf("attack utility %v", u)
	}
	if _, err := ParseRat("7/3"); err != nil {
		t.Fatal(err)
	}
}
