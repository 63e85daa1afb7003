package p2p

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func TestSwarmMatchesDynamicsExactly(t *testing.T) {
	// The message-passing swarm, the asynchronous swarm at delay 1 with no
	// loss or churn, and the numeric recurrence run the same step
	// (dynamics.Respond) on the same offers; results must be bit-identical,
	// on rings and connected graphs, zero-weight vertices included.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n, dist := rng.Intn(8)+3, graph.WeightDist(rng.Intn(4))
		g := graph.RandomRing(rng, n, dist)
		if trial%2 == 1 {
			g = graph.RandomConnected(rng, n, 0.4, dist)
		}
		if trial%3 == 0 {
			g.MustSetWeight(rng.Intn(n), numeric.Zero)
		}
		rounds := rng.Intn(50) + 10
		// The swarm's round-r utilities aggregate the offers computed in
		// round r-1 (a real network observes its income one round late), so
		// swarm(R) corresponds to dynamics(R-1).
		swarm, err := Run(g, Config{Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		async, err := RunAsync(g, AsyncConfig{Rounds: rounds, MaxDelay: 1})
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := dynamics.Run(g, dynamics.Options{MaxRounds: rounds - 1, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		for v := range swarm.Utilities {
			if swarm.Utilities[v] != dyn.Utilities[v] || async.Utilities[v] != dyn.Utilities[v] {
				t.Fatalf("trial %d: swarm, async and dynamics diverge at %d: %v, %v vs %v",
					trial, v, swarm.Utilities[v], async.Utilities[v], dyn.Utilities[v])
			}
		}
	}
}

func TestSwarmConvergesToEquilibrium(t *testing.T) {
	g := graph.Path(numeric.Ints(1, 100, 2))
	d, err := bottleneck.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{Rounds: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		want := d.Utility(g, v).Float64()
		if math.Abs(res.Utilities[v]-want) > 1e-6 {
			t.Errorf("U_%d = %v, equilibrium %v", v, res.Utilities[v], want)
		}
	}
}

func TestMessageCount(t *testing.T) {
	g := graph.Ring(numeric.Ints(1, 2, 3, 4))
	rounds := 17
	res, err := Run(g, Config{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * g.M() * rounds); res.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Messages, want)
	}
	if res.Rounds != rounds {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestHistoryTracking(t *testing.T) {
	g := graph.Ring(numeric.Ints(5, 1, 1, 1))
	res, err := Run(g, Config{Rounds: 30, TrackAgents: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 || len(res.History[0]) != 30 {
		t.Fatalf("history shape %d x %d", len(res.History), len(res.History[0]))
	}
	if res.History[0][29] != res.Utilities[0] {
		t.Fatal("history tail disagrees with final utilities")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(graph.New(0), Config{}); err == nil {
		t.Error("empty swarm accepted")
	}
	g := graph.Ring(numeric.Ints(1, 1, 1))
	if _, err := Run(g, Config{TrackAgents: []int{7}}); err == nil {
		t.Error("bad tracked agent accepted")
	}
}

func TestCompareAttackOnLowerBoundRing(t *testing.T) {
	// Heavy-vertex ring (the E6 family at k=2): the Sybil attack should
	// harvest noticeably more than the honest run, but never break 2.
	ws := numeric.Ints(100, 1, 1, 1, 1, 1, 1, 1, 1)
	g := graph.Ring(ws)
	v := 3
	// Use the exact optimizer's best split; the swarm should realize its
	// predicted gain (up to dynamics convergence error).
	in, err := core.NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.Optimize(core.OptimizeOptions{Grid: 32})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := g.RingOrder(v)
	if err != nil {
		t.Fatal(err)
	}
	spec := graph.SplitSpec{
		V:       v,
		Parts:   [][]int{{ring[1]}, {ring[len(ring)-1]}},
		Weights: []numeric.Rat{opt.BestW1, g.Weight(v).Sub(opt.BestW1)},
	}
	cmp, err := CompareAttack(g, spec, Config{Rounds: 20000})
	if err != nil {
		t.Fatal(err)
	}
	predicted := opt.Ratio.Float64()
	if cmp.Gain < predicted-0.1 {
		t.Fatalf("swarm gain %v far below exact prediction %v", cmp.Gain, predicted)
	}
	if cmp.Gain > 2.000001 {
		t.Fatalf("gain %v exceeds Theorem 8's bound", cmp.Gain)
	}
}

func TestCompareAttackNeutralOnUnitRing(t *testing.T) {
	g := graph.Ring(numeric.Ints(1, 1, 1, 1, 1))
	ring, err := g.RingOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	spec := graph.SplitSpec{
		V:       0,
		Parts:   [][]int{{ring[1]}, {ring[len(ring)-1]}},
		Weights: []numeric.Rat{numeric.New(1, 2), numeric.New(1, 2)},
	}
	cmp, err := CompareAttack(g, spec, Config{Rounds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.Gain-1) > 1e-6 {
		t.Fatalf("unit ring attack gain %v, want 1", cmp.Gain)
	}
}

func TestSwarmParallelismIsDeterministic(t *testing.T) {
	g := graph.RandomRing(rand.New(rand.NewSource(72)), 12, graph.DistUniform)
	a, err := Run(g, Config{Rounds: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{Rounds: 100, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Utilities {
		if a.Utilities[v] != b.Utilities[v] {
			t.Fatalf("worker count changed results at %d", v)
		}
	}
}

func TestFreeRiderIsStarved(t *testing.T) {
	// Tit-for-tat punishes free riding: the deviant's income decays to 0,
	// and the rest of the swarm converges to the equilibrium of the network
	// in which the free rider's weight is zero.
	g := graph.Ring(numeric.Ints(5, 7, 3, 9, 4))
	rider := 2
	res, err := Run(g, Config{Rounds: 4000, FreeRiders: []int{rider}, TrackAgents: []int{rider}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilities[rider] > 1e-9 {
		t.Fatalf("free rider still earns %v", res.Utilities[rider])
	}
	h := res.History[0]
	if !(h[0] > 1 && h[len(h)-1] < 1e-9) {
		t.Fatalf("free rider income did not decay: %v → %v", h[0], h[len(h)-1])
	}
	// Exact prediction: BD utilities of the graph with w_rider = 0.
	gz := g.Clone()
	gz.MustSetWeight(rider, numeric.Zero)
	dz, err := bottleneck.Decompose(gz)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if v == rider {
			continue
		}
		want := dz.Utility(gz, v).Float64()
		if math.Abs(res.Utilities[v]-want) > 1e-6*(want+1) {
			t.Fatalf("honest agent %d: swarm %v, zero-weight equilibrium %v", v, res.Utilities[v], want)
		}
	}
}

func TestFreeRiderValidation(t *testing.T) {
	g := graph.Ring(numeric.Ints(1, 1, 1))
	if _, err := Run(g, Config{FreeRiders: []int{7}}); err == nil {
		t.Fatal("out-of-range free rider accepted")
	}
}
