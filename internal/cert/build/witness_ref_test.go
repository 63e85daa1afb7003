package build

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
)

// witnessPerPair is the referee of witnessNet: it builds a fresh network
// holding only the active vertices and their residual edges for each pair,
// as Decomposition once did, and returns the witness and the solve's push
// count (−1 without a solve).
func witnessPerPair(ctx context.Context, g *graph.Graph, edges [][2]int, active []bool, alpha numeric.Rat) ([]cert.FlowEdge, int64, error) {
	if alpha.IsZero() {
		return nil, -1, nil
	}
	total := numeric.Zero
	for v, a := range active {
		if a {
			total = total.Add(g.Weight(v))
		}
	}
	total = total.Mul(alpha)
	if total.IsZero() {
		return nil, -1, nil
	}
	n := g.N()
	nw := maxflow.NewNetwork(2+2*n, 0, 1, 2*n+2*len(edges))
	for v := 0; v < n; v++ {
		if !active[v] {
			continue
		}
		nw.AddEdge(0, 2+v, maxflow.Finite(alpha.Mul(g.Weight(v))))
		nw.AddEdge(2+n+v, 1, maxflow.Finite(g.Weight(v)))
	}
	type arcRef struct{ from, to, id int }
	arcs := make([]arcRef, 0, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if !active[u] || !active[v] {
			continue
		}
		arcs = append(arcs, arcRef{u, v, nw.AddEdge(2+u, 2+n+v, maxflow.Inf)})
		arcs = append(arcs, arcRef{v, u, nw.AddEdge(2+v, 2+n+u, maxflow.Inf)})
	}
	if got := nw.SolveCtx(ctx, maxflow.Dinic); !got.Equal(total) {
		return nil, nw.Pushes(), fmt.Errorf("cert/build: Hall witness infeasible: routed %v of demand %v (α is not a valid lower bound for this pair)", got, total)
	}
	out := make([]cert.FlowEdge, 0, len(arcs))
	for _, a := range arcs {
		if f := nw.Flow(a.id); f.Sign() > 0 {
			out = append(out, cert.FlowEdge{From: a.from, To: a.to, Flow: f.String()})
		}
	}
	return out, nw.Pushes(), nil
}

// dustWeight draws a weight mixing small integers with k/2^48 dust, the
// shape bisection-era breakpoints left in split weights.
func dustWeight(rng *rand.Rand) numeric.Rat {
	dust := numeric.New(rng.Int63n(1<<48), 1<<48)
	switch rng.Intn(4) {
	case 0:
		return numeric.FromInt(1 + rng.Int63n(100))
	case 1:
		return dust
	case 2:
		return numeric.FromInt(rng.Int63n(100)).Add(dust)
	}
	return numeric.New(1+rng.Int63n(1000), 1+rng.Int63n(1<<20))
}

// checkWitnessNetwork decomposes g and, pair by pair, requires the reused
// witness network to return byte for byte the witness (or the error) of
// the per-pair referee, with the same push count, at the pair's α and at
// an α raised past it (an infeasible demand).
func checkWitnessNetwork(t *testing.T, g *graph.Graph) {
	t.Helper()
	ctx := context.Background()
	dec, err := bottleneck.Decompose(g)
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	edges := g.Edges()
	wn := &witnessNet{g: g, edges: edges}
	active := make([]bool, g.N())
	for v := range active {
		active[v] = true
	}
	for i := range dec.Pairs {
		p := &dec.Pairs[i]
		for _, alpha := range []numeric.Rat{p.Alpha, p.Alpha.Add(numeric.New(1, 1<<20))} {
			got, err := wn.witness(ctx, active, alpha)
			want, pushes, wantErr := witnessPerPair(ctx, g, edges, active, alpha)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("pair %d α=%v: error %v, referee %v", i, alpha, err, wantErr)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) {
				t.Fatalf("pair %d α=%v: witness %s, referee %s", i, alpha, gb, wb)
			}
			if pushes >= 0 && wn.nw.Pushes() != pushes {
				t.Fatalf("pair %d α=%v: %d pushes, referee %d", i, alpha, wn.nw.Pushes(), pushes)
			}
		}
		for _, v := range p.B {
			active[v] = false
		}
		for _, v := range p.C {
			active[v] = false
		}
	}
}

// FuzzWitnessNetwork referees the one-network-per-decomposition witnesses
// against the per-pair networks on random paths and rings of 2–17
// vertices with integer, k/2^48 dust and small-fraction weights. Its 40
// seeds run with every test pass.
func FuzzWitnessNetwork(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed*7), seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, ring bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%16
		if ring && n < 3 {
			n = 3
		}
		ws := make([]numeric.Rat, n)
		for v := range ws {
			ws[v] = dustWeight(rng)
		}
		g := graph.Path(ws)
		if ring {
			g = graph.Ring(ws)
		}
		checkWitnessNetwork(t, g)
	})
}
