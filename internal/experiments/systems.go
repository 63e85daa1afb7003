package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
	"repro/internal/p2p"
)

// E10DynamicsConvergence reproduces the Proposition 6 convergence claim as
// a series: L∞ utility error of the proportional response dynamics against
// the exact BD utilities, per round, on several instance shapes — including
// the degenerate α = 1 instance with its Θ(1/t) tail.
func E10DynamicsConvergence(maxRounds int) (*Table, error) {
	if maxRounds <= 0 {
		maxRounds = 1 << 14
	}
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring 1-7-2-9-3", graph.Ring(numeric.Ints(1, 7, 2, 9, 3))},
		{"path 1-100-2", graph.Path(numeric.Ints(1, 100, 2))},
		{"complete 3-1-4-1-5", graph.Complete(numeric.Ints(3, 1, 4, 1, 5))},
		{"degenerate ring 512-512-1024 (Θ(1/t))", graph.Ring(numeric.Ints(512, 512, 1024))},
	}
	cols := []string{"rounds"}
	for _, it := range instances {
		cols = append(cols, it.name)
	}
	t := NewTable("E10 / Prop. 6 — dynamics convergence to the BD allocation (L-inf utility error)", cols...)
	var checkpoints []int
	for r := 1; r <= maxRounds; r *= 4 {
		checkpoints = append(checkpoints, r)
	}
	series := make([][]float64, len(instances))
	for i, it := range instances {
		d, err := bottleneck.Decompose(it.g)
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", it.name, err)
		}
		res, err := dynamics.Run(it.g, dynamics.Options{
			MaxRounds:       maxRounds,
			Tol:             1e-300,
			TargetUtilities: d.Utilities(it.g),
		})
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", it.name, err)
		}
		series[i] = res.UtilityError
	}
	for _, r := range checkpoints {
		row := make([]any, 0, len(instances)+1)
		row = append(row, r)
		for i := range instances {
			idx := r
			if idx >= len(series[i]) {
				idx = len(series[i]) - 1
			}
			row = append(row, fmt.Sprintf("%.3e", series[i][idx]))
		}
		t.Add(row...)
	}
	// Shape checks: geometric decay on the regular instances, 1/t on the
	// degenerate one.
	for i := range instances[:3] {
		first, last := series[i][1], series[i][len(series[i])-1]
		if first > 1e-12 && last > first/1e3 {
			return t, fmt.Errorf("E10 %s: error decayed only %v → %v", instances[i].name, first, last)
		}
	}
	deg := series[3]
	q1, q2 := deg[maxRounds/4], deg[maxRounds-1]
	if q2 > 0 && !(q1/q2 > 2 && q1/q2 < 8) {
		return t, fmt.Errorf("E10 degenerate: expected ~4x decay over 4x rounds (Θ(1/t)), got %vx", q1/q2)
	}
	t.Note("regular instances decay geometrically; the α=1 degenerate ring decays as Θ(1/t) (×4 rounds ≈ ×4 accuracy)")
	return t, nil
}

// E12SolverAblation times the engineering alternatives on identical inputs:
// Dinic vs push–relabel max-flow inside the parametric solver, and the
// general flow decomposition vs the path/cycle DP on rings.
func E12SolverAblation(sizes []int, trials int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64}
	}
	if trials <= 0 {
		trials = 3
	}
	t := NewTable("E12 / ablation — decomposition engines, max-flow solvers, and the incremental optimizer on rings",
		"n", "flow+dinic", "push-relabel", "edmonds-karp", "path-dp", "dp speedup vs dinic",
		"opt cold", "opt incr", "incr speedup", "results equal")
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		g := graph.RandomRing(rng, n, graph.DistUniform)
		timeIt := func(f func() (*bottleneck.Decomposition, error)) (time.Duration, *bottleneck.Decomposition, error) {
			var best time.Duration
			var dec *bottleneck.Decomposition
			for k := 0; k < trials; k++ {
				t0 := time.Now()
				d, err := f()
				el := time.Since(t0)
				if err != nil {
					return 0, nil, err
				}
				if k == 0 || el < best {
					best = el
				}
				dec = d
			}
			return best, dec, nil
		}
		tDinic, dFlow, err := timeIt(func() (*bottleneck.Decomposition, error) {
			return bottleneck.DecomposeWith(g, bottleneck.EngineFlow)
		})
		if err != nil {
			return t, fmt.Errorf("E12: %w", err)
		}
		tDP, dDP, err := timeIt(func() (*bottleneck.Decomposition, error) {
			return bottleneck.DecomposeWith(g, bottleneck.EnginePathDP)
		})
		if err != nil {
			return t, fmt.Errorf("E12: %w", err)
		}
		// Push–relabel variant is exercised at the raw max-flow level on
		// the λ-network implied by the ring (the decomposition API pins
		// Dinic); build one comparable instance.
		tPR := timeMaxflow(g, maxflow.PushRelabel, trials)
		tEK := timeMaxflow(g, maxflow.EdmondsKarp, trials)
		equal := dFlow.StructureSignature() == dDP.StructureSignature()
		if !equal {
			return t, fmt.Errorf("E12: engines disagree at n=%d", n)
		}
		// Second ablation axis: a full split optimization with the
		// incremental engine (shared transfers, warm Dinkelbach, eval cache)
		// against the same search forced onto from-scratch decompositions.
		tCold, tIncr, err := timeOptimize(g, trials)
		if err != nil {
			return t, fmt.Errorf("E12 n=%d: %w", n, err)
		}
		speedup := float64(tDinic) / float64(max(tDP, time.Nanosecond))
		optSpeedup := float64(tCold) / float64(max(tIncr, time.Nanosecond))
		t.Add(n, tDinic, tPR, tEK, tDP, fmt.Sprintf("%.1fx", speedup),
			tCold, tIncr, fmt.Sprintf("%.1fx", optSpeedup), equal)
	}
	t.Note("identical decompositions from every engine; flow+dinic runs on fixed-width cells, push-relabel and edmonds-karp on exact rationals; the incremental optimizer pays for its caches below n ≈ 16 and wins by a growing factor past it")
	return t, nil
}

// timeOptimize times Instance.Optimize on g (attacker at vertex 0) on a
// cold Instance (evaluation cache and incremental engine off) and on a warm
// one, returning the best of trials runs each. Both runs compute identical
// results (enforced exactly).
func timeOptimize(g *graph.Graph, trials int) (cold, incr time.Duration, err error) {
	run := func(warm bool) (time.Duration, *core.OptResult, error) {
		var best time.Duration
		var opt *core.OptResult
		for k := 0; k < trials; k++ {
			in, err := core.NewInstance(g, 0)
			if err != nil {
				return 0, nil, err
			}
			in.SetEvalCache(warm)
			in.SetIncremental(warm)
			t0 := time.Now()
			o, err := in.Optimize(core.OptimizeOptions{Grid: 16})
			el := time.Since(t0)
			if err != nil {
				return 0, nil, err
			}
			if k == 0 || el < best {
				best = el
			}
			opt = o
		}
		return best, opt, nil
	}
	cold, oCold, err := run(false)
	if err != nil {
		return 0, 0, err
	}
	incr, oIncr, err := run(true)
	if err != nil {
		return 0, 0, err
	}
	if !oCold.BestW1.Equal(oIncr.BestW1) || !oCold.BestU.Equal(oIncr.BestU) || !oCold.Ratio.Equal(oIncr.Ratio) {
		return 0, 0, fmt.Errorf("incremental optimizer diverged: cold (w1=%v U=%v) vs incr (w1=%v U=%v)",
			oCold.BestW1, oCold.BestU, oIncr.BestW1, oIncr.BestU)
	}
	return cold, incr, nil
}

// timeMaxflow times one solve of the parametric λ = 1 network for g.
func timeMaxflow(g *graph.Graph, algo maxflow.Algorithm, trials int) time.Duration {
	build := func() *maxflow.Network {
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
	var best time.Duration
	for k := 0; k < trials; k++ {
		nw := build()
		t0 := time.Now()
		nw.Solve(algo)
		el := time.Since(t0)
		if k == 0 || el < best {
			best = el
		}
	}
	return best
}

// E14SwarmAttack runs the message-passing swarm honestly and under the
// exact optimizer's best Sybil split, comparing the realized gain with the
// exact prediction (the motivation scenario of Section I).
func E14SwarmAttack(rounds int) (*Table, error) {
	if rounds <= 0 {
		rounds = 20000
	}
	t := NewTable("E14 / P2P swarm under Sybil attack (message-passing protocol)",
		"instance", "honest U_v", "sybil U_v1+U_v2", "swarm gain", "exact prediction", "messages")
	instances := []struct {
		name string
		g    *graph.Graph
		v    int
	}{
		{"lower-bound family k=2, H=100", mustRing(numeric.Ints(100, 1, 1, 1, 1, 1, 1, 1, 1)), 3},
		{"uniform random ring n=8", graph.RandomRing(rand.New(rand.NewSource(9)), 8, graph.DistUniform), 2},
		{"unit ring n=6 (no gain)", mustRing(numeric.Ints(1, 1, 1, 1, 1, 1)), 0},
	}
	for _, it := range instances {
		in, err := core.NewInstance(it.g, it.v)
		if err != nil {
			return t, fmt.Errorf("E14 %s: %w", it.name, err)
		}
		opt, err := in.Optimize(core.OptimizeOptions{Grid: 32})
		if err != nil {
			return t, fmt.Errorf("E14 %s: %w", it.name, err)
		}
		ring, err := it.g.RingOrder(it.v)
		if err != nil {
			return t, err
		}
		spec := graph.SplitSpec{
			V:       it.v,
			Parts:   [][]int{{ring[1]}, {ring[len(ring)-1]}},
			Weights: []numeric.Rat{opt.BestW1, it.g.Weight(it.v).Sub(opt.BestW1)},
		}
		cmp, err := p2p.CompareAttack(it.g, spec, p2p.Config{Rounds: rounds})
		if err != nil {
			return t, fmt.Errorf("E14 %s: %w", it.name, err)
		}
		predicted := opt.Ratio.Float64()
		t.Add(it.name, fmtF(cmp.HonestUtility), fmtF(cmp.SybilUtility),
			fmtF(cmp.Gain), fmtF(predicted), cmp.Honest.Messages+cmp.Sybil.Messages)
		if cmp.Gain > 2.001 {
			return t, fmt.Errorf("E14 %s: swarm gain %v exceeds 2", it.name, cmp.Gain)
		}
		if cmp.Gain < predicted-0.15 {
			return t, fmt.Errorf("E14 %s: swarm gain %v far below exact prediction %v", it.name, cmp.Gain, predicted)
		}
	}
	t.Note("the deployed-protocol simulation realizes the exact mechanism's predicted gains; nothing exceeds 2")
	return t, nil
}

func mustRing(ws []numeric.Rat) *graph.Graph { return graph.Ring(ws) }
