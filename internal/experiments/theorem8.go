package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

// E5Theorem8UpperBound sweeps random rings and reports the worst incentive
// ratio per (size, distribution) cell; every exactly-evaluated ratio must be
// ≤ 2.
func E5Theorem8UpperBound(s Scale) (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	t := NewTable("E5 / Theorem 8 — incentive ratio upper bound on random rings",
		"n", "dist", "instances", "max ratio", "argmax weights", "cache hit", "warm dink", "all <= 2")
	two := numeric.Two
	for _, n := range s.RingSizes {
		for _, dist := range []graph.WeightDist{graph.DistUniform, graph.DistSkewed, graph.DistPowers} {
			worst := numeric.One
			var worstW string
			var st core.EvalStats
			for trial := 0; trial < s.Trials; trial++ {
				g := graph.RandomRing(rng, n, dist)
				v := rng.Intn(n)
				in, err := core.NewInstance(g, v)
				if err != nil {
					return t, fmt.Errorf("E5 (n=%d, %v): %w", n, dist, err)
				}
				opt, err := in.Optimize(core.OptimizeOptions{Grid: s.OptGrid})
				if err != nil {
					return t, fmt.Errorf("E5 (n=%d, %v): %w", n, dist, err)
				}
				accumulateStats(&st, in.EvalStats())
				ratio := opt.Ratio
				if two.Less(ratio) {
					return t, fmt.Errorf("E5: ratio %v > 2 on ring %v (v=%d)", ratio, g.Weights(), v)
				}
				if worst.Less(ratio) {
					worst = ratio
					worstW = fmt.Sprintf("%v@%d", g.Weights(), v)
				}
			}
			t.Add(n, dist, s.Trials, fmtF(worst.Float64()), worstW,
				hitRate(st.CacheHits, st.CacheMisses), hitRate(int64(st.Solver.Stage1Warm+st.Solver.LaterWarm), int64(st.Solver.Stage1Cold+st.Solver.LaterCold)), true)
		}
	}
	t.Note("Theorem 8 upper bound verified with exact rational comparisons; cache hit = eval-cache, warm dink = warm-started Dinkelbach runs; " +
		"both are work counts that depend on the order the parallel grid evaluates splits, so they vary run to run (not results)")
	return t, nil
}

// E6LowerBoundFamily measures the family of rings whose ratio tends to 2:
// odd ring of 2k+5 unit vertices plus one heavy vertex, attacker at ring
// distance 3 (located by search, matching the lower bound of [5]).
func E6LowerBoundFamily(ks []int, heavy numeric.Rat, optGrid int) (*Table, error) {
	if len(ks) == 0 {
		ks = []int{0, 1, 2, 4, 8}
	}
	if heavy.IsZero() {
		heavy = numeric.FromInt(1000000)
	}
	t := NewTable("E6 / Theorem 8 tightness — lower-bound family ratio -> 2",
		"k", "n", "heavy H", "measured ratio", "limit (2k+1)/(k+1)", "gap to 2", "evals (cached)")
	prev := numeric.Zero
	for _, k := range ks {
		g, v, err := core.LowerBoundFamily(k, heavy)
		if err != nil {
			return t, err
		}
		in, err := core.NewInstance(g, v)
		if err != nil {
			return t, fmt.Errorf("E6 k=%d: %w", k, err)
		}
		opt, err := in.Optimize(core.OptimizeOptions{Grid: optGrid})
		if err != nil {
			return t, fmt.Errorf("E6 k=%d: %w", k, err)
		}
		ratio := opt.Ratio
		limit := core.LowerBoundLimitRatio(k)
		if numeric.Two.Less(ratio) {
			return t, fmt.Errorf("E6 k=%d: ratio %v > 2", k, ratio)
		}
		if ratio.Less(prev) {
			return t, fmt.Errorf("E6 k=%d: family ratio not monotone (%v after %v)", k, ratio, prev)
		}
		prev = ratio
		st := in.EvalStats()
		t.Add(k, 2*k+5, heavy, fmtF(ratio.Float64()), limit.String(),
			fmtF(2-ratio.Float64()), fmt.Sprintf("%d (%d)", st.CacheMisses, st.CacheHits))
	}
	t.Note("ratio increases toward 2 along the family; limit formula (2k+1)/(k+1); evals = distinct splits decomposed, (cached) = re-served from the eval cache")
	return t, nil
}

// accumulateStats folds one instance's evaluation counters into a running
// total for a table cell.
func accumulateStats(dst *core.EvalStats, s core.EvalStats) {
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.Solver.Evals += s.Solver.Evals
	dst.Solver.Fallbacks += s.Solver.Fallbacks
	dst.Solver.Stage1Warm += s.Solver.Stage1Warm
	dst.Solver.Stage1Cold += s.Solver.Stage1Cold
	dst.Solver.WarmRestarts += s.Solver.WarmRestarts
	dst.Solver.TransferHits += s.Solver.TransferHits
	dst.Solver.TransferMisses += s.Solver.TransferMisses
	dst.Solver.TailHits += s.Solver.TailHits
	dst.Solver.TailMisses += s.Solver.TailMisses
	dst.Solver.LaterWarm += s.Solver.LaterWarm
	dst.Solver.LaterCold += s.Solver.LaterCold
}

// hitRate renders hits/(hits+misses) as a percentage table cell.
func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
}

// E7Lemma9 verifies Lemma 9 exactly across random rings: the honest split
// is utility-neutral.
func E7Lemma9(s Scale) (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	t := NewTable("E7 / Lemma 9 — honest split is utility-neutral",
		"n", "dist", "instances", "exact matches")
	for _, n := range s.RingSizes {
		for _, dist := range []graph.WeightDist{graph.DistUniform, graph.DistUnit, graph.DistPowers} {
			matches := 0
			for trial := 0; trial < s.Trials; trial++ {
				g := graph.RandomRing(rng, n, dist)
				v := rng.Intn(n)
				in, err := core.NewInstance(g, v)
				if err != nil {
					return t, fmt.Errorf("E7: %w", err)
				}
				ev, err := in.HonestSplitEval()
				if err != nil {
					return t, fmt.Errorf("E7: %w", err)
				}
				if !ev.U.Equal(in.HonestU) {
					return t, fmt.Errorf("E7: Lemma 9 fails on %v (v=%d): %v vs %v",
						g.Weights(), v, ev.U, in.HonestU)
				}
				matches++
			}
			t.Add(n, dist, s.Trials, matches)
		}
	}
	t.Note("U_v(w1_0, w2_0) = U_v held with exact equality on every instance")
	return t, nil
}

// E8Theorem10 verifies monotone non-decreasing misreport utility across
// random rings and general graphs.
func E8Theorem10(s Scale) (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	t := NewTable("E8 / Theorem 10 — U_v(x) monotone non-decreasing",
		"family", "instances", "samples per curve", "violations")
	families := []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"random rings", func() *graph.Graph {
			return graph.RandomRing(rng, s.RingSizes[rng.Intn(len(s.RingSizes))], graph.WeightDist(rng.Intn(3)))
		}},
		{"random connected", func() *graph.Graph {
			return graph.RandomConnected(rng, rng.Intn(6)+3, 0.5, graph.WeightDist(rng.Intn(3)))
		}},
	}
	const samples = 32
	for _, fam := range families {
		for trial := 0; trial < 2*s.Trials; trial++ {
			g := fam.gen()
			v := rng.Intn(g.N())
			curve, err := analysis.SampleCurve(g, v, samples)
			if err != nil {
				return t, fmt.Errorf("E8: %w", err)
			}
			if err := analysis.VerifyTheorem10(curve); err != nil {
				return t, fmt.Errorf("E8 (%s, w=%v, v=%d): %w", fam.name, g.Weights(), v, err)
			}
		}
		t.Add(fam.name, 2*s.Trials, samples, 0)
	}
	t.Note("monotonicity verified with exact comparisons at every sample")
	return t, nil
}

// E9StageDeltas verifies the per-stage utility deltas' signs (Lemmas 16,
// 18, 19, 22, 24) at the optimizer's best split.
func E9StageDeltas(s Scale) (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	t := NewTable("E9 / stage analysis — per-stage deltas and lemma verdicts",
		"n", "dist", "instances", "C-class cases", "B-class cases", "adjusted", "all checks pass")
	for _, n := range s.RingSizes {
		for _, dist := range []graph.WeightDist{graph.DistUniform, graph.DistSkewed} {
			cC, cB, adj := 0, 0, 0
			for trial := 0; trial < s.Trials; trial++ {
				g := graph.RandomRing(rng, n, dist)
				v := rng.Intn(n)
				verdict, err := core.VerifyTheorem8(g, v, core.OptimizeOptions{Grid: s.OptGrid})
				if err != nil {
					return t, fmt.Errorf("E9: %w", err)
				}
				if !verdict.Stages.AllChecksPass() {
					for _, c := range verdict.Stages.Checks {
						if !c.Pass {
							return t, fmt.Errorf("E9 (w=%v, v=%d): %s: %s", g.Weights(), v, c.Name, c.Detail)
						}
					}
				}
				if verdict.Stages.VClass.IsC() {
					cC++
				} else {
					cB++
				}
				if verdict.Stages.Adjusted {
					adj++
				}
			}
			t.Add(n, dist, s.Trials, cC, cB, adj, true)
		}
	}
	t.Note("every δ/Δ sign matched its lemma; Adjusting Technique engaged where both identities shared a pair")
	return t, nil
}

// E11Misreport verifies that misreporting alone never gains on rings
// (truthfulness of [7] in the single-parameter deviation).
func E11Misreport(s Scale) (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	t := NewTable("E11 / misreport truthfulness on rings ([7])",
		"n", "dist", "instances", "reports per instance", "max gain")
	for _, n := range s.RingSizes {
		for _, dist := range []graph.WeightDist{graph.DistUniform, graph.DistPowers} {
			maxGain := 1.0
			const reports = 16
			for trial := 0; trial < s.Trials; trial++ {
				g := graph.RandomRing(rng, n, dist)
				v := rng.Intn(n)
				honest, err := sybil.HonestUtility(g, v)
				if err != nil {
					return t, fmt.Errorf("E11: %w", err)
				}
				for k := 0; k <= reports; k++ {
					x := g.Weight(v).MulInt(int64(k)).DivInt(reports)
					u, err := sybil.MisreportUtility(g, v, x)
					if err != nil {
						return t, fmt.Errorf("E11: %w", err)
					}
					if honest.Less(u) {
						return t, fmt.Errorf("E11: misreport gained on %v (v=%d, x=%v)", g.Weights(), v, x)
					}
					if honest.Sign() > 0 {
						if gain := u.Div(honest).Float64(); gain > maxGain {
							maxGain = gain
						}
					}
				}
			}
			t.Add(n, dist, s.Trials, reports+1, fmtF(maxGain))
		}
	}
	t.Note("no misreport ever exceeded the truthful utility (gain stays at 1)")
	return t, nil
}

// E13GeneralConjecture probes the conclusion's conjecture: on small general
// networks, exhaustive m-split Sybil search stays within ratio 2.
func E13GeneralConjecture(s Scale) (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	t := NewTable("E13 / conjecture — Sybil ratio on general networks",
		"family", "instances", "max ratio", "all <= 2")
	families := []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"random connected n<=6", func() *graph.Graph {
			return graph.RandomConnected(rng, rng.Intn(4)+3, 0.5, graph.WeightDist(rng.Intn(3)))
		}},
		{"stars n<=6", func() *graph.Graph {
			return graph.Star(graph.RandomWeights(rng, rng.Intn(4)+3, graph.DistUniform))
		}},
		{"complete n<=5", func() *graph.Graph {
			return graph.Complete(graph.RandomWeights(rng, rng.Intn(3)+3, graph.DistUniform))
		}},
		{"trees n<=7", func() *graph.Graph {
			return graph.RandomTree(rng, rng.Intn(5)+3, graph.WeightDist(rng.Intn(3)))
		}},
		{"theta graphs", func() *graph.Graph {
			l1, l2, l3 := rng.Intn(2), rng.Intn(2)+1, rng.Intn(2)+1
			n := 2 + l1 + l2 + l3
			return graph.Theta(l1, l2, l3, graph.RandomWeights(rng, n, graph.DistUniform))
		}},
	}
	for _, fam := range families {
		worst := 1.0
		for trial := 0; trial < s.Trials; trial++ {
			g := fam.gen()
			v := rng.Intn(g.N())
			if g.Degree(v) == 0 {
				continue
			}
			res, err := sybil.Search(g, v, sybil.SearchOptions{GridResolution: 6})
			if err != nil {
				return t, fmt.Errorf("E13: %w", err)
			}
			if numeric.Two.Less(res.Ratio) {
				return t, fmt.Errorf("E13: conjecture violated: ratio %v on %v (v=%d)",
					res.Ratio, g.Weights(), v)
			}
			if r := res.Ratio.Float64(); r > worst {
				worst = r
			}
		}
		t.Add(fam.name, s.Trials, fmtF(worst), true)
	}
	t.Note("no searched strategy exceeded ratio 2, consistent with the paper's conjecture")
	return t, nil
}
