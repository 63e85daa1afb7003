package sybil

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func TestRingSweepWarmColdParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		n := rng.Intn(5) + 5
		g := graph.RandomRing(rng, n, graph.WeightDist(rng.Intn(4)))
		v := rng.Intn(n)
		warm, err := RingSweep(g, v, SweepOptions{Grid: 24})
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		in, err := core.NewInstance(g, v)
		if err != nil {
			t.Fatal(err)
		}
		in.SetEvalCache(false)
		in.SetIncremental(false)
		cold, err := instanceSweep(context.Background(), in, SweepOptions{Grid: 24})
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		if len(warm.Points) != len(cold.Points) {
			t.Fatalf("trial %d: point counts differ", trial)
		}
		for i := range warm.Points {
			if !warm.Points[i].W1.Equal(cold.Points[i].W1) || !warm.Points[i].U.Equal(cold.Points[i].U) {
				t.Fatalf("trial %d point %d: warm (%v, %v) != cold (%v, %v)",
					trial, i, warm.Points[i].W1, warm.Points[i].U, cold.Points[i].W1, cold.Points[i].U)
			}
		}
		if !warm.BestU.Equal(cold.BestU) || !warm.Ratio.Equal(cold.Ratio) {
			t.Fatalf("trial %d: best/ratio differ", trial)
		}
		if cold.Stats.Solver.Evals != 0 {
			t.Fatalf("trial %d: cold sweep used the incremental solver: %+v", trial, cold.Stats)
		}
	}
}

func TestRingSweepTracksOptimizer(t *testing.T) {
	// The sweep's best sampled ratio is a lower bound on the optimizer's
	// certified ratio, and with the optimizer's own grid it must agree with
	// the grid phase: both stay ≤ 2 (Theorem 8).
	g, v, err := core.LowerBoundFamily(2, numeric.FromInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RingSweep(g, v, SweepOptions{Grid: 32})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.Optimize(core.OptimizeOptions{Grid: 32})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Ratio.Less(sw.Ratio) {
		t.Fatalf("sweep ratio %v exceeds optimizer's certified %v", sw.Ratio, opt.Ratio)
	}
	if numeric.Two.Less(sw.Ratio) {
		t.Fatalf("sweep ratio %v exceeds 2", sw.Ratio)
	}
	if sw.Stats.Solver.Evals == 0 || sw.Stats.Solver.TransferHits == 0 {
		t.Fatalf("sweep did not exercise the incremental solver: %+v", sw.Stats)
	}
	if sw.Honest.Sign() <= 0 {
		t.Fatalf("unexpected honest utility %v", sw.Honest)
	}
}
