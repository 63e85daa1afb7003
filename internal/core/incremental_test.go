package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// TestOptimizeKnobsParity proves the Instance's engine knobs change only the
// amount of work: on a cold Instance (eval cache and incremental engine
// off), Optimize must return exactly (Rat-equal) the same best split,
// utility, ratio, and piece certificate as on a fully accelerated one.
func TestOptimizeKnobsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := []int{5, 6, 7, 9, 11}[rng.Intn(5)]
		g := graph.RandomRing(rng, n, graph.WeightDist(rng.Intn(4)))
		v := rng.Intn(n)
		run := func(on bool) *OptResult {
			in, err := NewInstance(g, v)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			in.SetEvalCache(on)
			in.SetIncremental(on)
			opt, err := in.Optimize(OptimizeOptions{Grid: 16})
			if err != nil {
				t.Fatalf("trial %d (engine on=%v, w=%v, v=%d): %v", trial, on, g.Weights(), v, err)
			}
			return opt
		}
		warm, cold := run(true), run(false)
		if !warm.BestW1.Equal(cold.BestW1) || !warm.BestU.Equal(cold.BestU) || !warm.Ratio.Equal(cold.Ratio) {
			t.Fatalf("trial %d (w=%v, v=%d): warm (w1=%v U=%v ζ=%v) != cold (w1=%v U=%v ζ=%v)",
				trial, g.Weights(), v,
				warm.BestW1, warm.BestU, warm.Ratio,
				cold.BestW1, cold.BestU, cold.Ratio)
		}
		if len(warm.Pieces) != len(cold.Pieces) {
			t.Fatalf("trial %d: piece counts differ: %d vs %d", trial, len(warm.Pieces), len(cold.Pieces))
		}
		for i := range warm.Pieces {
			wp, cp := warm.Pieces[i], cold.Pieces[i]
			if !wp.Lo.Equal(cp.Lo) || !wp.Hi.Equal(cp.Hi) || wp.Signature != cp.Signature ||
				!wp.BestW1.Equal(cp.BestW1) || !wp.BestU.Equal(cp.BestU) {
				t.Fatalf("trial %d piece %d differs: %+v vs %+v", trial, i, wp, cp)
			}
		}
	}
}

// TestEvalStatsAccounting checks the observability wiring: an accelerated
// Optimize reports cache traffic and solver activity, a fully disabled one
// reports none.
func TestEvalStatsAccounting(t *testing.T) {
	g, v, err := LowerBoundFamily(2, numeric.FromInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Optimize(OptimizeOptions{Grid: 16}); err != nil {
		t.Fatal(err)
	}
	st := in.EvalStats()
	if st.CacheMisses == 0 || st.Solver.Evals == 0 {
		t.Fatalf("accelerated run recorded no activity: %+v", st)
	}
	if st.CacheHits == 0 {
		t.Fatalf("bisection re-evaluations should hit the cache: %+v", st)
	}

	in2, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	in2.SetEvalCache(false)
	in2.SetIncremental(false)
	if _, err := in2.Optimize(OptimizeOptions{Grid: 16}); err != nil {
		t.Fatal(err)
	}
	st2 := in2.EvalStats()
	if st2.CacheHits != 0 || st2.Solver.Evals != 0 {
		t.Fatalf("disabled run still used the caches: %+v", st2)
	}
}

// TestEvalSplitCacheReturnsSameEval verifies repeated EvalSplit calls at an
// identical w1 return the memoized evaluation (pointer-equal) and that
// distinct w1 keys never collide.
func TestEvalSplitCacheReturnsSameEval(t *testing.T) {
	g := graph.Ring(numeric.Ints(3, 1, 4, 1, 5, 9, 2, 6))
	in, err := NewInstance(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	W := in.W()
	a, err := in.EvalSplit(W.DivInt(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.EvalSplit(W.DivInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical w1 did not hit the cache")
	}
	c, err := in.EvalSplit(W.DivInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct w1 returned the cached eval")
	}
	if !c.W1.Equal(W.DivInt(4)) {
		t.Fatalf("cached eval has wrong key: %v", c.W1)
	}
}
