package repro

// One benchmark per reproduced table/figure (E1–E14, DESIGN.md §4), driving
// the same experiment code that cmd/experiments uses for the recorded
// results, plus micro-benchmarks of the load-bearing kernels (exact
// arithmetic, max-flow, decomposition engines, the split optimizer, one
// swarm round). Regenerate everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
	"repro/internal/p2p"
)

func benchScale() experiments.Scale { return experiments.Quick }

func BenchmarkE1Fig1Decomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Fig2AlphaCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2Fig2(24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Fig3PairEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3Fig3(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4Fig4InitialForms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4Fig4(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5Theorem8UpperBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5Theorem8UpperBound(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6LowerBoundFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6LowerBoundFamily([]int{0, 1, 2, 4}, numeric.FromInt(100000), 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Lemma9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7Lemma9(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Theorem10Monotonicity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Theorem10(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9StageDeltas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9StageDeltas(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10DynamicsConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10DynamicsConvergence(1 << 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11MisreportTruthful(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E11Misreport(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12SolverAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E12SolverAblation([]int{8, 16, 32}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13GeneralConjecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E13GeneralConjecture(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14SwarmAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E14SwarmAttack(4000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15AsyncRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E15AsyncRobustness(8000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16CoalitionAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E16CoalitionAttack(4, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17FreeRiding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E17FreeRiding(4000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks -----------------------------------------------------

func BenchmarkRatAddFastPath(b *testing.B) {
	x, y := numeric.New(355, 113), numeric.New(22, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkRatMulBigFallback(b *testing.B) {
	x := numeric.New(1<<62, 3)
	y := numeric.New(1<<61, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func benchRing(n int) *graph.Graph {
	return graph.RandomRing(rand.New(rand.NewSource(42)), n, graph.DistUniform)
}

func BenchmarkDecomposePathDP(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g := benchRing(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bottleneck.DecomposeWith(g, bottleneck.EnginePathDP); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecomposeFlow(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g := benchRing(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bottleneck.DecomposeWith(g, bottleneck.EngineFlow); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func buildLambdaNetwork(g *graph.Graph) *maxflow.Network {
	n := g.N()
	nw := maxflow.NewNetwork(2*n+2, 2*n, 2*n+1, 2*n+2*g.M())
	for v := 0; v < n; v++ {
		nw.AddEdge(2*n, v, maxflow.Finite(g.Weight(v)))
		nw.AddEdge(n+v, 2*n+1, maxflow.Finite(g.Weight(v)))
		for _, u := range g.Neighbors(v) {
			nw.AddEdge(v, n+u, maxflow.Inf)
		}
	}
	return nw
}

func BenchmarkMaxflow(b *testing.B) {
	g := benchRing(64)
	for _, algo := range []maxflow.Algorithm{maxflow.Dinic, maxflow.PushRelabel, maxflow.EdmondsKarp} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw := buildLambdaNetwork(g)
				nw.Solve(algo)
			}
		})
	}
}

// BenchmarkEvalSplitIncremental measures a w1 sweep on one fixed Instance —
// the incremental engine's home turf: the interior transfers, warm-start
// hints and residual tails accumulated by earlier evaluations accelerate
// later ones. The (w1, w2) → PathEval memoization is disabled so every
// iteration performs a real decomposition (with it on, a sweep over a fixed
// grid degenerates into map lookups).
func BenchmarkEvalSplitIncremental(b *testing.B) {
	benchEvalSplit(b, true)
}

// BenchmarkEvalSplitStock is the identical sweep with the incremental engine
// disabled — each evaluation runs a stock DecomposeWith, the seed execution
// path.
func BenchmarkEvalSplitStock(b *testing.B) {
	benchEvalSplit(b, false)
}

func benchEvalSplit(b *testing.B, incremental bool) {
	for _, n := range []int{33, 65, 129} {
		g, v, err := core.LowerBoundFamily((n-5)/2, numeric.FromInt(1000))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			in, err := core.NewInstance(g, v)
			if err != nil {
				b.Fatal(err)
			}
			in.SetEvalCache(false)
			in.SetIncremental(incremental)
			W := in.W()
			// 1009 distinct splits, revisited cyclically: past the first lap
			// the sweep is in the steady state an optimizer run lives in.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w1 := W.MulInt(int64(i%1009 + 1)).DivInt(1010)
				if _, err := in.EvalSplit(w1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeSplit measures one complete split optimization with the
// incremental machinery live. A fresh Instance per iteration keeps the
// measurement honest: every iteration pays for its own caches, exactly like
// a caller optimizing a new ring.
func BenchmarkOptimizeSplit(b *testing.B) {
	benchOptimizeSplit(b, true)
}

// BenchmarkOptimizeSplitCold is the same workload on a cold Instance, one
// with the evaluation cache and the incremental engine off — the seed
// implementation's execution path, kept runnable for before/after
// comparisons (see BENCH_optimize.json and cmd/benchjson).
func BenchmarkOptimizeSplitCold(b *testing.B) {
	benchOptimizeSplit(b, false)
}

func benchOptimizeSplit(b *testing.B, warm bool) {
	for _, n := range []int{9, 17, 33, 65, 129} {
		g, v, err := core.LowerBoundFamily((n-5)/2, numeric.FromInt(1000))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := core.NewInstance(g, v)
				if err != nil {
					b.Fatal(err)
				}
				in.SetEvalCache(warm)
				in.SetIncremental(warm)
				if _, err := in.Optimize(core.OptimizeOptions{Grid: 32}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSwarmRounds(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g := benchRing(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p2p.Run(g, p2p.Config{Rounds: 100}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 10:
		return "n=00" + string(rune('0'+n))
	case n < 100:
		return "n=0" + itoa(n)
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
