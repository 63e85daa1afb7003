package repro

// Scale stress tests: larger instances than the experiment sweeps touch,
// gated behind -short so the quick suite stays fast.

import (
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/p2p"
)

func TestStressLargeRingDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(201))
	for _, n := range []int{256, 512} {
		g := graph.RandomRing(rng, n, graph.DistUniform)
		d, err := bottleneck.DecomposeWith(g, bottleneck.EnginePathDP)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := d.Validate(g); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := numeric.Sum(d.Utilities(g)); !got.Equal(g.TotalWeight()) {
			t.Fatalf("n=%d: ΣU = %v ≠ Σw = %v", n, got, g.TotalWeight())
		}
	}
}

func TestStressLargeRingEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.RandomRing(rand.New(rand.NewSource(202)), 96, graph.DistPowers)
	dDP, err := bottleneck.DecomposeWith(g, bottleneck.EnginePathDP)
	if err != nil {
		t.Fatal(err)
	}
	dFlow, err := bottleneck.DecomposeWith(g, bottleneck.EngineFlow)
	if err != nil {
		t.Fatal(err)
	}
	if dDP.StructureSignature() != dFlow.StructureSignature() {
		t.Fatal("engines disagree at n=96")
	}
	for i := range dDP.Pairs {
		if !dDP.Pairs[i].Alpha.Equal(dFlow.Pairs[i].Alpha) {
			t.Fatalf("α mismatch at pair %d", i)
		}
	}
}

func TestStressTheorem8OnLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A 64-vertex member of the tight family: ratio must exceed 1.9 yet
	// stay ≤ 2 with exact comparisons.
	g, v, err := core.LowerBoundFamily(29, numeric.FromInt(100000)) // n = 63
	if err != nil {
		t.Fatal(err)
	}
	ratio := optimizedRatio(t, g, v, 48)
	if ratio.Float64() < 1.9 {
		t.Fatalf("ratio %v below the family's expected ≈ %v", ratio, core.LowerBoundLimitRatio(29))
	}
	if numeric.Two.Less(ratio) {
		t.Fatalf("Theorem 8 violated at scale: %v", ratio)
	}
}

func TestStressSwarmThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.RandomRing(rand.New(rand.NewSource(203)), 512, graph.DistUniform)
	res, err := p2p.Run(g, p2p.Config{Rounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != int64(2*g.M()*200) {
		t.Fatalf("message accounting wrong: %d", res.Messages)
	}
}
