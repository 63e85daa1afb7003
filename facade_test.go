package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
)

// randomInstance draws a random ring, path, or tree with small random
// rational weights. Shapes rotate so 50 draws cover all three evenly.
func randomInstance(rng *rand.Rand, i int) *repro.Graph {
	n := 3 + rng.Intn(6)
	ws := make([]repro.Rat, n)
	for v := range ws {
		ws[v] = repro.NewRat(int64(1+rng.Intn(24)), int64(1+rng.Intn(6)))
	}
	switch i % 3 {
	case 0:
		return repro.Ring(ws)
	case 1:
		return repro.Path(ws)
	default:
		g := repro.NewGraph(n)
		if err := g.SetWeights(ws); err != nil {
			panic(err)
		}
		for v := 1; v < n; v++ {
			if err := g.AddEdge(rng.Intn(v), v); err != nil {
				panic(err)
			}
		}
		return g
	}
}

func sameDecomposition(t *testing.T, g *repro.Graph, a, b *repro.Decomposition, label string) {
	t.Helper()
	if a.StructureSignature() != b.StructureSignature() {
		t.Fatalf("%s: structure signatures differ:\n%s\n%s", label, a, b)
	}
	for v := 0; v < g.N(); v++ {
		if !a.AlphaOf(v).Equal(b.AlphaOf(v)) || !a.Utility(g, v).Equal(b.Utility(g, v)) {
			t.Fatalf("%s: vertex %d differs: α %v vs %v, U %v vs %v",
				label, v, a.AlphaOf(v), b.AlphaOf(v), a.Utility(g, v), b.Utility(g, v))
		}
	}
}

// TestFacadeEquivalence pins the options API against itself: on 50 random
// ring/path/tree instances, every option form — with and without a
// recorder installed — returns bit-identical results.
func TestFacadeEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		g := randomInstance(rng, i)

		base, err := repro.Decompose(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		rec := &repro.TraceCapture{}
		for label, alt := range map[string]func() (*repro.Decomposition, error){
			"WithEngine": func() (*repro.Decomposition, error) {
				return repro.Decompose(ctx, g, repro.WithEngine(repro.EngineAuto))
			},
			"WithWorkers":  func() (*repro.Decomposition, error) { return repro.Decompose(ctx, g, repro.WithWorkers(3)) },
			"WithRecorder": func() (*repro.Decomposition, error) { return repro.Decompose(ctx, g, repro.WithRecorder(rec)) },
		} {
			d, err := alt()
			if err != nil {
				t.Fatalf("instance %d %s: %v", i, label, err)
			}
			sameDecomposition(t, g, base, d, label)
		}
		if snap := rec.Last(); snap == nil || snap.Root.Find("bottleneck.decompose") == nil {
			t.Fatalf("instance %d: recorder captured no decomposition span tree", i)
		}

		// Allocation: precomputed decomposition vs internal decompose.
		viaOpt, err := repro.Allocate(ctx, g, repro.WithDecomposition(base))
		if err != nil {
			t.Fatal(err)
		}
		viaSelf, err := repro.Allocate(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if !viaOpt.Utility(v).Equal(viaSelf.Utility(v)) {
				t.Fatalf("instance %d: allocation utility differs at %d", i, v)
			}
		}

		// Incentive ratio (rings only): plain and recorded runs must agree
		// exactly.
		if i%3 == 0 {
			plain, err := repro.IncentiveRatio(ctx, g, i%g.N())
			if err != nil {
				t.Fatal(err)
			}
			traced, err := repro.IncentiveRatio(ctx, g, i%g.N(), repro.WithRecorder(&repro.TraceCapture{}))
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Equal(traced) {
				t.Fatalf("instance %d: ratio differs: %v vs %v", i, plain, traced)
			}
		}
	}
}

// TestFacadeRingSweep exercises the RingSweep facade: grid control, the
// recorder, and agreement with the optimizer's certified best.
func TestFacadeRingSweep(t *testing.T) {
	ctx := context.Background()
	g := repro.Ring(repro.Ints(100, 1, 1, 1, 1, 1, 1, 1, 1))
	rec := &repro.TraceCapture{}
	res, err := repro.RingSweep(ctx, g, 3, repro.WithGrid(16), repro.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 17 {
		t.Fatalf("sweep points = %d, want 17", len(res.Points))
	}
	ratio, err := repro.IncentiveRatio(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio.Less(res.Ratio) {
		t.Fatalf("sampled sweep ratio %v exceeds certified optimum %v", res.Ratio, ratio)
	}
	snap := rec.Last()
	if snap == nil || snap.Root.Find("sybil.ring_sweep") == nil {
		t.Fatal("recorder captured no sweep span")
	}
	if sp := snap.Root.Find("splitsolver.eval"); sp == nil {
		t.Fatal("sweep trace lacks split-solver spans")
	}
}
