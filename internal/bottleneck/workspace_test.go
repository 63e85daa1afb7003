package bottleneck

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
)

// flowSolves collects the maxflow.solve spans of a snapshot subtree in
// order, each as its arithmetic counter ("fixed" or "rat") and its pushes.
func flowSolves(sp *obs.SpanSnapshot, into []solveRecord) []solveRecord {
	if sp.Name == "maxflow.solve" {
		var rec solveRecord
		for _, c := range sp.Counters {
			switch c.Key {
			case "fixed", "rat":
				rec.arith = fmt.Sprintf("%s=%d", c.Key, c.Value)
			case "pushes":
				rec.pushes = c.Value
			}
		}
		into = append(into, rec)
	}
	for _, c := range sp.Children {
		into = flowSolves(c, into)
	}
	return into
}

// tracedDecompose decomposes g with decompose under a fresh trace and
// returns the pairs, rendered, and the max-flow solves in order.
func tracedDecompose(t *testing.T, g *graph.Graph, decompose func(context.Context) (*Decomposition, error)) (string, []solveRecord) {
	tr := obs.NewTrace("scratch")
	d, err := decompose(tr.Context(context.Background()))
	tr.Finish()
	if err != nil {
		t.Errorf("decompose %v: %v", g.Edges(), err)
		return "", nil
	}
	var b strings.Builder
	for _, p := range d.Pairs {
		fmt.Fprintf(&b, "%v|%v|%v;", p.B, p.C, p.Alpha)
	}
	return b.String(), flowSolves(tr.Snapshot().Root, nil)
}

// cutShort runs decompose under an injector that panics at the maxflow.push
// site on the given push, and reports whether the panic came.
func cutShort(push int64, decompose func(context.Context) (*Decomposition, error)) (cut bool) {
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteMaxflowPush, Kind: fault.KindError, Every: push, Limit: 1})
	if err != nil {
		panic(err)
	}
	defer func() { cut = recover() != nil }()
	_, _ = decompose(fault.ContextWith(context.Background(), inj)) // only the panic matters
	return false
}

// scratchGraph draws the next graph of a reuse sequence: lambdaGraph's
// families and random graphs of 1 to 16 vertices, with zero, dust and
// past-int64 weights, or one of 17 to 40 vertices with positive weights.
func scratchGraph(rng *rand.Rand, i int) *graph.Graph {
	if i%5 == 4 {
		n := 17 + rng.Intn(24)
		if rng.Intn(2) == 0 {
			return graph.RandomConnected(rng, n, 0.15, graph.DistUniform)
		}
		return graph.SmallWorld(rng, n, 0.3, graph.DistUniform)
	}
	return lambdaGraph(rng, uint8(rng.Intn(256)), uint8(rng.Intn(7)))
}

// checkScratchSequence decomposes graphs from rng one after another with
// decompose, whose workspace outlives each decomposition, and requires
// every one to match a decomposition on a fresh workspace in its pairs, its
// α values and every max-flow solve's pushes and arithmetic. Every fourth
// graph is first decomposed with a panic at one of its pushes, so the next
// use of the workspace follows a solve cut short. It returns the solves by
// arithmetic and the decompositions cut short.
func checkScratchSequence(t *testing.T, rng *rand.Rand, graphs int, decompose func(context.Context, *graph.Graph, Engine) (*Decomposition, error)) (map[string]int, int) {
	arith := map[string]int{}
	cut := 0
	for i := 0; i < graphs; i++ {
		g := scratchGraph(rng, i)
		engine := []Engine{EngineFlow, EngineAuto}[i%2]
		want, wantSolves := tracedDecompose(t, g, func(ctx context.Context) (*Decomposition, error) {
			return decomposeIn(ctx, g, engine, new(dpScratch))
		})
		if i%4 == 3 && len(wantSolves) > 0 {
			var pushes int64
			for _, s := range wantSolves {
				pushes += s.pushes
			}
			if pushes > 0 && cutShort(1+rng.Int63n(pushes), func(ctx context.Context) (*Decomposition, error) {
				return decompose(ctx, g, engine)
			}) {
				cut++
			}
		}
		got, gotSolves := tracedDecompose(t, g, func(ctx context.Context) (*Decomposition, error) {
			return decompose(ctx, g, engine)
		})
		if got != want || fmt.Sprint(gotSolves) != fmt.Sprint(wantSolves) {
			t.Errorf("graph %d (n=%d, %v): reused workspace\n%s %v\nfresh workspace\n%s %v", i, g.N(), engine, got, gotSolves, want, wantSolves)
			return arith, cut
		}
		for _, s := range gotSolves {
			arith[s.arith]++
		}
	}
	return arith, cut
}

// TestWorkspaceReuseMatchesFresh decomposes a sequence of graphs that grows
// and shrinks in n and m on one workspace — the five topology families,
// random and disconnected graphs, zero weights (the positive-subgraph
// path) and weights past int64 (the rational Dinic) — and requires each
// decomposition to match one on a fresh workspace, solve for solve.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	sc := new(dpScratch)
	arith, cut := checkScratchSequence(t, rand.New(rand.NewSource(29)), 160, func(ctx context.Context, g *graph.Graph, engine Engine) (*Decomposition, error) {
		return decomposeIn(ctx, g, engine, sc)
	})
	if arith["fixed=1"] == 0 || arith["rat=1"] == 0 || cut < 10 {
		t.Fatalf("solves by arithmetic %v, %d decompositions cut short: the sequence must reach both arithmetics and cut at least 10", arith, cut)
	}
}

// TestPooledWorkspaceReuseMatchesFresh runs the reuse sequence from four
// goroutines at once through DecomposeCtx, so the workspaces move between
// goroutines through the pool, panicking solves' included.
func TestPooledWorkspaceReuseMatchesFresh(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			checkScratchSequence(t, rand.New(rand.NewSource(seed)), 40, DecomposeCtx)
		}(int64(100 + w))
	}
	wg.Wait()
}

// TestPutScratchDropsGraph requires a workspace returned to the pool to
// hold no graph, after a decomposition that ran the flow engine.
func TestPutScratchDropsGraph(t *testing.T) {
	g := graph.RandomConnected(rand.New(rand.NewSource(3)), 12, 0.3, graph.DistUniform)
	sc := new(dpScratch)
	if _, err := decomposeIn(context.Background(), g, EngineFlow, sc); err != nil {
		t.Fatal(err)
	}
	if sc.net.g != g {
		t.Fatal("the flow decomposition did not build its λ-network in the workspace")
	}
	putScratch(sc)
	if sc.net.g != nil {
		t.Fatal("a pooled workspace still holds its last graph")
	}
}
