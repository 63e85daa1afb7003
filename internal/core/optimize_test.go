package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
)

func TestOptimizeNeverExceedsTwo(t *testing.T) {
	// Theorem 8, upper bound: every exactly-evaluated split is ≤ 2·U_v.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(8) + 3
		g := graph.RandomRing(rng, n, graph.WeightDist(rng.Intn(4)))
		v := rng.Intn(n)
		in, err := NewInstance(g, v)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := in.Optimize(OptimizeOptions{Grid: 24})
		if err != nil {
			t.Fatal(err)
		}
		if numeric.Two.Less(opt.Ratio) {
			t.Fatalf("trial %d: ratio %v > 2 on ring %v (v=%d, w1*=%v)",
				trial, opt.Ratio, g.Weights(), v, opt.BestW1)
		}
		if opt.Ratio.Less(numeric.One) {
			t.Fatalf("trial %d: ratio %v < 1 — optimizer worse than honest split", trial, opt.Ratio)
		}
	}
}

func TestOptimizeBeatsDenseGrid(t *testing.T) {
	// The piece-aware optimizer must be at least as good as a much denser
	// naive grid.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(5) + 4
		g := graph.RandomRing(rng, n, graph.DistUniform)
		v := rng.Intn(n)
		in, err := NewInstance(g, v)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := in.Optimize(OptimizeOptions{Grid: 16})
		if err != nil {
			t.Fatal(err)
		}
		const dense = 400
		for i := 0; i <= dense; i++ {
			w1 := in.W().MulInt(int64(i)).DivInt(dense)
			ev, err := in.EvalSplit(w1)
			if err != nil {
				t.Fatal(err)
			}
			if opt.BestU.Less(ev.U) {
				t.Fatalf("trial %d: dense grid found %v at w1=%v, optimizer only %v at %v",
					trial, ev.U, w1, opt.BestU, opt.BestW1)
			}
		}
	}
}

func TestOptimizeKnownGain(t *testing.T) {
	// n=9 unit ring with heavy vertex: ratio converges to 5/3 (k=2 member
	// of the lower-bound family); with H = 100 it is already > 1.65.
	g, v, err := LowerBoundFamily(2, numeric.FromInt(100))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.Optimize(OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Ratio.Float64() < 1.65 {
		t.Fatalf("ratio = %v, expected > 1.65", opt.Ratio)
	}
	if numeric.Two.Less(opt.Ratio) {
		t.Fatalf("ratio = %v > 2", opt.Ratio)
	}
	if len(opt.Pieces) == 0 {
		t.Fatal("no piece certificate recorded")
	}
	// Pieces must tile [0, W] in order.
	if !opt.Pieces[0].Lo.IsZero() || !opt.Pieces[len(opt.Pieces)-1].Hi.Equal(in.W()) {
		t.Fatalf("pieces do not span [0, w_v]: %v..%v",
			opt.Pieces[0].Lo, opt.Pieces[len(opt.Pieces)-1].Hi)
	}
	for i := 0; i+1 < len(opt.Pieces); i++ {
		if opt.Pieces[i+1].Lo.Less(opt.Pieces[i].Hi) {
			t.Fatalf("pieces overlap at %d", i)
		}
	}
}

func TestLowerBoundFamilyApproachesTwo(t *testing.T) {
	heavy := numeric.FromInt(1000000)
	prev := numeric.Zero
	for _, k := range []int{1, 2, 4, 8} {
		g, v, err := LowerBoundFamily(k, heavy)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(g, v)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := in.Optimize(OptimizeOptions{Grid: 96})
		if err != nil {
			t.Fatal(err)
		}
		r := opt.Ratio
		limit := LowerBoundLimitRatio(k)
		if r.Float64() < limit.Float64()-1e-3 {
			t.Fatalf("k=%d: measured %v well below limit %v", k, r.Float64(), limit)
		}
		if numeric.Two.Less(r) {
			t.Fatalf("k=%d: ratio %v > 2", k, r)
		}
		if r.LessEq(prev) {
			t.Fatalf("k=%d: family ratio not increasing: %v after %v", k, r, prev)
		}
		prev = r
	}
	// The limit sequence itself tends to 2.
	if LowerBoundLimitRatio(1000).Float64() < 1.99 {
		t.Fatal("limit ratio formula wrong")
	}
}

func TestOptimizerSnapsBreakpointsToSimpleRationals(t *testing.T) {
	// On ring (93, 30, 32, 22, 56, 12) with v = 1 the structure boundaries
	// are ratios of weight sums; after Stern–Brocot snapping at least one
	// recorded piece edge must be exactly such a small rational (denominator
	// well below the 2^48 bisection dust).
	g := graph.Ring(numeric.Ints(93, 30, 32, 22, 56, 12))
	in, err := NewInstance(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.Optimize(OptimizeOptions{Grid: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Pieces) < 2 {
		t.Fatalf("expected multiple pieces, got %d", len(opt.Pieces))
	}
	smallDen := 0
	for _, p := range opt.Pieces[1:] {
		if _, den, ok := p.Lo.Int64Parts(); ok && den < 1_000_000 {
			smallDen++
		}
	}
	if smallDen == 0 {
		for _, p := range opt.Pieces {
			t.Logf("piece [%v, %v]", p.Lo, p.Hi)
		}
		t.Fatal("no snapped (small-denominator) piece boundary found")
	}
}

func TestLowerBoundFamilyValidation(t *testing.T) {
	if _, _, err := LowerBoundFamily(-1, numeric.One); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := LowerBoundFamily(1, numeric.Zero); err == nil {
		t.Error("zero heavy weight accepted")
	}
}

func TestOptimizerTieBreaksTowardHonestSplit(t *testing.T) {
	// Regression: on ring (34,41,28,35,53,29,38,48) with v = 1 the whole
	// ring is one α = 1 pair and no split gains (ratio 1); many splits tie
	// at the optimum. The optimizer must return the honest split itself —
	// an arbitrary co-optimal split sends the stage analysis on a walk
	// between two optima where Lemma 16's sign genuinely fails.
	g := graph.Ring(numeric.Ints(34, 41, 28, 35, 53, 29, 38, 48))
	in, err := NewInstance(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.Optimize(OptimizeOptions{Grid: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Ratio.Equal(numeric.One) {
		t.Fatalf("ratio = %v, want 1", opt.Ratio)
	}
	if !opt.BestW1.Equal(in.W1Zero) {
		t.Fatalf("tie not broken toward honest split: w1* = %v, w1⁰ = %v", opt.BestW1, in.W1Zero)
	}
	rep, err := in.AnalyzeStages(opt.BestW1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllChecksPass() {
		t.Fatal("stage checks failed at the honest optimum")
	}
}

func TestOptimizeUnitRingNoGain(t *testing.T) {
	// Perfect symmetry: no Sybil gain on unit rings.
	for _, n := range []int{3, 4, 5, 6} {
		ws := make([]numeric.Rat, n)
		for i := range ws {
			ws[i] = numeric.One
		}
		in, err := NewInstance(graph.Ring(ws), 0)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := in.Optimize(OptimizeOptions{Grid: 16})
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Ratio.Equal(numeric.One) {
			t.Errorf("n=%d: unit ring ratio = %v, want 1", n, opt.Ratio)
		}
	}
}

func TestVerifyTheorem8EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(6) + 3
		g := graph.RandomRing(rng, n, graph.WeightDist(rng.Intn(3)))
		v := rng.Intn(n)
		verdict, err := VerifyTheorem8(g, v, OptimizeOptions{Grid: 16})
		if err != nil {
			t.Fatal(err)
		}
		if !verdict.LeqTwo {
			t.Fatalf("trial %d: Theorem 8 violated: ratio %v on %v", trial, verdict.Ratio, g.Weights())
		}
		if verdict.Stages == nil || len(verdict.Stages.Checks) == 0 {
			t.Fatal("missing stage report")
		}
	}
}
