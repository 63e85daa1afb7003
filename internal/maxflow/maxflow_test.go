package maxflow

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/obs"
)

func r(n, d int64) numeric.Rat { return numeric.New(n, d) }

func TestCap(t *testing.T) {
	c := Finite(r(3, 2))
	if c.IsInf() || !c.Value().Equal(r(3, 2)) || c.String() != "3/2" {
		t.Fatalf("Finite cap wrong: %v", c)
	}
	if !Inf.IsInf() || Inf.String() != "inf" {
		t.Fatal("Inf cap wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Value of Inf did not panic")
		}
	}()
	Inf.Value()
}

func TestFiniteNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity accepted")
		}
	}()
	Finite(numeric.FromInt(-1))
}

// buildDiamond returns the classic 4-node diamond with known max flow.
//
//	s → a (3), s → b (2), a → b (1), a → t (2), b → t (3); max flow = 5
func buildDiamond() (*Network, []int) {
	nw := NewNetwork(4, 0, 3)
	ids := []int{
		nw.AddEdge(0, 1, Finite(numeric.FromInt(3))),
		nw.AddEdge(0, 2, Finite(numeric.FromInt(2))),
		nw.AddEdge(1, 2, Finite(numeric.FromInt(1))),
		nw.AddEdge(1, 3, Finite(numeric.FromInt(2))),
		nw.AddEdge(2, 3, Finite(numeric.FromInt(3))),
	}
	return nw, ids
}

func TestDiamondBothAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{Dinic, PushRelabel, EdmondsKarp} {
		nw, _ := buildDiamond()
		got := nw.Solve(algo)
		if !got.Equal(numeric.FromInt(5)) {
			t.Errorf("%v: flow = %v, want 5", algo, got)
		}
		if err := nw.CheckConservation(); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}

func TestRationalCapacities(t *testing.T) {
	// s → a (1/3), a → t (1/2): max flow 1/3 exactly.
	nw := NewNetwork(3, 0, 2)
	nw.AddEdge(0, 1, Finite(r(1, 3)))
	nw.AddEdge(1, 2, Finite(r(1, 2)))
	if got := nw.Solve(Dinic); !got.Equal(r(1, 3)) {
		t.Errorf("flow = %v, want 1/3", got)
	}
}

func TestInfiniteCapacityMiddle(t *testing.T) {
	// s → a (5), a → b (inf), b → t (7/2): flow = 7/2.
	for _, algo := range []Algorithm{Dinic, PushRelabel, EdmondsKarp} {
		nw := NewNetwork(4, 0, 3)
		nw.AddEdge(0, 1, Finite(numeric.FromInt(5)))
		mid := nw.AddEdge(1, 2, Inf)
		nw.AddEdge(2, 3, Finite(r(7, 2)))
		if got := nw.Solve(algo); !got.Equal(r(7, 2)) {
			t.Errorf("%v: flow = %v, want 7/2", algo, got)
		}
		if !nw.Flow(mid).Equal(r(7, 2)) {
			t.Errorf("%v: middle arc flow = %v", algo, nw.Flow(mid))
		}
	}
}

func TestDisconnectedSinkZeroFlow(t *testing.T) {
	nw := NewNetwork(4, 0, 3)
	nw.AddEdge(0, 1, Finite(numeric.FromInt(4)))
	nw.AddEdge(2, 3, Finite(numeric.FromInt(4)))
	if got := nw.Solve(Dinic); !got.IsZero() {
		t.Errorf("flow = %v, want 0", got)
	}
}

func TestZeroCapacityEdges(t *testing.T) {
	nw := NewNetwork(3, 0, 2)
	nw.AddEdge(0, 1, Finite(numeric.Zero))
	nw.AddEdge(1, 2, Finite(numeric.FromInt(3)))
	if got := nw.Solve(PushRelabel); !got.IsZero() {
		t.Errorf("flow = %v, want 0", got)
	}
}

func TestFlowPerEdge(t *testing.T) {
	nw, ids := buildDiamond()
	nw.Solve(Dinic)
	// Into the sink: flows on a→t and b→t must sum to 5.
	total := nw.Flow(ids[3]).Add(nw.Flow(ids[4]))
	if !total.Equal(numeric.FromInt(5)) {
		t.Errorf("sink inflow = %v", total)
	}
}

func TestMinCutDiamond(t *testing.T) {
	nw, _ := buildDiamond()
	nw.Solve(Dinic)
	minSide := nw.MinCutSourceSide(false)
	maxSide := nw.MinCutSourceSide(true)
	if !minSide[0] || minSide[3] {
		t.Errorf("minimal side wrong: %v", minSide)
	}
	if !maxSide[0] || maxSide[3] {
		t.Errorf("maximal side wrong: %v", maxSide)
	}
	// Minimal side ⊆ maximal side.
	for v := range minSide {
		if minSide[v] && !maxSide[v] {
			t.Errorf("minimal side not contained in maximal side at %v", v)
		}
	}
	// Both sides must induce cuts of value 5.
	for _, side := range [][]bool{minSide, maxSide} {
		if got := cutValue(nw, side); !got.Equal(numeric.FromInt(5)) {
			t.Errorf("cut value = %v, want 5 (side %v)", got, side)
		}
	}
}

// cutValue computes the capacity of the cut induced by side.
func cutValue(nw *Network, side []bool) numeric.Rat {
	total := numeric.Zero
	for u := 0; u < nw.n; u++ {
		if !side[u] {
			continue
		}
		for _, id := range nw.adj[u] {
			if id%2 != 0 {
				continue
			}
			if !side[nw.arcs[id].to] {
				total = total.Add(nw.arcs[id].cap)
			}
		}
	}
	return total
}

// randomNetwork builds a random DAG-ish network with integer capacities.
func randomNetwork(rng *rand.Rand, n int) *Network {
	nw := NewNetwork(n, 0, n-1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (v == 0) || (u == n-1) {
				continue
			}
			if rng.Float64() < 0.45 {
				nw.AddEdge(u, v, Finite(numeric.FromInt(int64(rng.Intn(10)))))
			}
		}
	}
	return nw
}

// bruteMinCut enumerates all s-t cuts of a small network.
func bruteMinCut(nw *Network) numeric.Rat {
	inner := []int{}
	for v := 0; v < nw.n; v++ {
		if v != nw.s && v != nw.t {
			inner = append(inner, v)
		}
	}
	best := numeric.Rat{}
	first := true
	for mask := 0; mask < 1<<len(inner); mask++ {
		side := make([]bool, nw.n)
		side[nw.s] = true
		for i, v := range inner {
			side[v] = mask&(1<<i) != 0
		}
		val := cutValue(nw, side)
		if first || val.Less(best) {
			best = val
			first = false
		}
	}
	return best
}

func TestRandomNetworksAgainstBruteForceAndEachOther(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(6) + 3 // 3..8 nodes: brute force is 2^(n-2) ≤ 64 cuts
		proto := randomNetwork(rng, n)
		want := bruteMinCut(proto)

		gotD := proto.Solve(Dinic)
		if err := proto.CheckConservation(); err != nil {
			t.Fatalf("trial %d dinic conservation: %v", trial, err)
		}
		if !gotD.Equal(want) {
			t.Fatalf("trial %d: dinic flow %v != brute min cut %v", trial, gotD, want)
		}

		gotP := proto.Solve(PushRelabel)
		if err := proto.CheckConservation(); err != nil {
			t.Fatalf("trial %d push-relabel conservation: %v", trial, err)
		}
		if !gotP.Equal(want) {
			t.Fatalf("trial %d: push-relabel flow %v != brute min cut %v", trial, gotP, want)
		}

		gotE := proto.Solve(EdmondsKarp)
		if err := proto.CheckConservation(); err != nil {
			t.Fatalf("trial %d edmonds-karp conservation: %v", trial, err)
		}
		if !gotE.Equal(want) {
			t.Fatalf("trial %d: edmonds-karp flow %v != brute min cut %v", trial, gotE, want)
		}

		// Min-cut sides must both achieve the optimum.
		proto.Solve(Dinic)
		for _, maximal := range []bool{false, true} {
			side := proto.MinCutSourceSide(maximal)
			if !side[proto.s] || side[proto.t] {
				t.Fatalf("trial %d: invalid cut side", trial)
			}
			if got := cutValue(proto, side); !got.Equal(want) {
				t.Fatalf("trial %d: cut side value %v != %v (maximal=%v)", trial, got, want, maximal)
			}
		}
	}
}

func TestMaximalSideContainsMinimalSide(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		nw := randomNetwork(rng, rng.Intn(8)+3)
		nw.Solve(Dinic)
		minSide := nw.MinCutSourceSide(false)
		maxSide := nw.MinCutSourceSide(true)
		for v := range minSide {
			if minSide[v] && !maxSide[v] {
				t.Fatalf("trial %d: lattice violated at node %d", trial, v)
			}
		}
	}
}

func TestResolveResetsFlows(t *testing.T) {
	nw, _ := buildDiamond()
	a := nw.Solve(Dinic)
	b := nw.Solve(Dinic)
	if !a.Equal(b) {
		t.Fatalf("re-solve changed value: %v vs %v", a, b)
	}
}

func TestAddEdgeAfterSolvePanics(t *testing.T) {
	nw, _ := buildDiamond()
	nw.Solve(Dinic)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after solve did not panic")
		}
	}()
	nw.AddEdge(0, 1, Inf)
}

func TestBadNetworkParamsPanic(t *testing.T) {
	for _, c := range []struct{ n, s, t int }{{1, 0, 0}, {3, -1, 2}, {3, 0, 3}, {3, 1, 1}} {
		func() {
			defer func() { recover() }()
			NewNetwork(c.n, c.s, c.t)
			t.Errorf("NewNetwork(%v) did not panic", c)
		}()
	}
}

// TestSolveCtxCountsArithmetic checks that every maxflow.solve span counts
// the arithmetic it ran, next to its arith attribute, and that a Collector
// sums the counters into the /metrics series of fixed-width and rational
// solves.
func TestSolveCtxCountsArithmetic(t *testing.T) {
	c := obs.NewCollector(obs.CollectorConfig{})
	tr := c.NewTrace("solves")
	ctx := tr.Context(context.Background())
	for _, arcs := range [][]testArc{boundEdge(false), bigBoundEdge(false), bigBoundEdge(true)} {
		nw, _ := buildTestNetwork(4, arcs)
		nw.SolveCtx(ctx, Dinic)
	}
	nw, _ := buildDiamond()
	nw.SolveCtx(ctx, PushRelabel)
	tr.Finish()
	counts := map[string]int64{}
	tr.Snapshot().Root.Walk(func(sp *obs.SpanSnapshot) {
		if sp.Name != "maxflow.solve" {
			return
		}
		for _, a := range sp.Attrs {
			if a.Key == "arith" && sp.Counter(a.Value) != 1 {
				t.Errorf("arith=%s span counters %v", a.Value, sp.Counters)
			}
		}
		counts["fixed"] += sp.Counter("fixed")
		counts["rat"] += sp.Counter("rat")
	})
	if counts["fixed"] != 2 || counts["rat"] != 2 {
		t.Fatalf("span counters %v, want 2 fixed and 2 rat", counts)
	}
	var b strings.Builder
	c.WritePrometheus(&b, "irshared_")
	for _, line := range []string{
		`irshared_span_counter_total{counter="maxflow.solve/fixed"} 2`,
		`irshared_span_counter_total{counter="maxflow.solve/rat"} 2`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("/metrics lacks %s", line)
		}
	}
}
