package bottleneck

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// stageFlowRef is the referee of the decomposition's shared λ-network: the
// per-stage flow oracle the decomposition once ran, which builds a fresh
// network of the stage graph alone on its first solve and afterwards
// replaces only the source capacities.
type stageFlowRef struct {
	g   *graph.Graph
	ctx context.Context
	nw  *maxflow.Network
	src []int

	memoOK     bool
	memoLambda numeric.Rat
	memoVal    numeric.Rat
	memoS      []int
}

func (o *stageFlowRef) solve(lambda numeric.Rat) (numeric.Rat, []int) {
	if o.memoOK && o.memoLambda.Equal(lambda) {
		return o.memoVal, o.memoS
	}
	n := o.g.N()
	if o.nw == nil {
		s, t := 2*n, 2*n+1
		o.nw = maxflow.NewNetwork(2*n+2, s, t, 2*n+2*o.g.M())
		o.src = make([]int, n)
		for v := 0; v < n; v++ {
			o.src[v] = o.nw.AddEdge(s, v, maxflow.Finite(lambda.Mul(o.g.Weight(v))))
			o.nw.AddEdge(n+v, t, maxflow.Finite(o.g.Weight(v)))
			for _, u := range o.g.Neighbors(v) {
				o.nw.AddEdge(v, n+u, maxflow.Inf)
			}
		}
	} else {
		for v, id := range o.src {
			o.nw.SetCapacity(id, maxflow.Finite(lambda.Mul(o.g.Weight(v))))
		}
	}
	flowVal := o.nw.SolveCtx(o.ctx, maxflow.Dinic)
	val := flowVal.Sub(lambda.Mul(o.g.TotalWeight()))
	side := o.nw.MinCutSourceSide(true)
	var S []int
	for v := 0; v < n; v++ {
		if side[v] {
			S = append(S, v)
		}
	}
	o.memoOK, o.memoLambda, o.memoVal, o.memoS = true, lambda, val, S
	return val, S
}

func (o *stageFlowRef) value(lambda numeric.Rat) (numeric.Rat, numeric.Rat) {
	val, S := o.solve(lambda)
	return val, o.g.WeightOf(S)
}

func (o *stageFlowRef) maximal(lambda numeric.Rat) []int {
	_, S := o.solve(lambda)
	o.memoOK, o.memoS = false, nil
	return S
}

// solveRecord is what one oracle call's max-flow solve showed on its span:
// the arithmetic and the push count ("" and 0 when the memo answered).
type solveRecord struct {
	arith  string
	pushes int64
}

// traced runs f with ctx installed on a fresh trace and returns the
// record of the maxflow.solve span it left, if any.
func traced(t *testing.T, set func(context.Context), f func()) solveRecord {
	t.Helper()
	tr := obs.NewTrace("referee")
	set(tr.Context(context.Background()))
	f()
	tr.Finish()
	var rec solveRecord
	solves := 0
	for _, sp := range tr.Snapshot().Root.Children {
		if sp.Name != "maxflow.solve" {
			continue
		}
		solves++
		for _, a := range sp.Attrs {
			if a.Key == "arith" {
				rec.arith = a.Value
			}
		}
		for _, c := range sp.Counters {
			if c.Key == "pushes" {
				rec.pushes = c.Value
			}
		}
	}
	if solves > 1 {
		t.Fatalf("one oracle call ran %d max-flows", solves)
	}
	return rec
}

// lambdaReferee is a minimizeOracle that answers from the shared-network
// oracle after requiring the per-stage referee to give the same value,
// w(S), maximal set, push count and arithmetic at the same λ.
type lambdaReferee struct {
	t     *testing.T
	stage int
	got   *flowOracle
	ref   *stageFlowRef
	arith map[string]int // solves by arithmetic, over the whole check
}

func (r *lambdaReferee) compare(what string, lambda numeric.Rat, got, ref solveRecord) {
	r.t.Helper()
	if got != ref {
		r.t.Fatalf("stage %d %s(%v): solve %+v, referee %+v", r.stage, what, lambda, got, ref)
	}
	if got.arith != "" {
		r.arith[got.arith]++
	}
}

func (r *lambdaReferee) value(lambda numeric.Rat) (numeric.Rat, numeric.Rat) {
	r.t.Helper()
	var val, wS, rVal, rWS numeric.Rat
	got := traced(r.t, func(ctx context.Context) { r.got.ctx = ctx }, func() { val, wS = r.got.value(lambda) })
	ref := traced(r.t, func(ctx context.Context) { r.ref.ctx = ctx }, func() { rVal, rWS = r.ref.value(lambda) })
	if val.String() != rVal.String() || wS.String() != rWS.String() {
		r.t.Fatalf("stage %d value(%v) = (%v, %v), referee (%v, %v)", r.stage, lambda, val, wS, rVal, rWS)
	}
	r.compare("value", lambda, got, ref)
	return val, wS
}

func (r *lambdaReferee) maximal(lambda numeric.Rat) []int {
	r.t.Helper()
	var S, rS []int
	got := traced(r.t, func(ctx context.Context) { r.got.ctx = ctx }, func() { S = r.got.maximal(lambda) })
	ref := traced(r.t, func(ctx context.Context) { r.ref.ctx = ctx }, func() { rS = r.ref.maximal(lambda) })
	if !equalInts(S, rS) {
		r.t.Fatalf("stage %d maximal(%v) = %v, referee %v", r.stage, lambda, S, rS)
	}
	r.compare("maximal", lambda, got, ref)
	return S
}

// checkLambdaNetwork runs the flow decomposition of g stage by stage on one
// shared λ-network, rebuilt in the workspace sc over whatever network sc
// held, refereeing every oracle call of every Dinkelbach loop against the
// per-stage network. Each stage also probes λ values off the Dinkelbach
// path: 1, just above α*, a k/2^48 dust λ and a λ with parts past int64.
// The stages must reproduce DecomposeWith(g, EngineFlow). It returns the
// solves by arithmetic.
func checkLambdaNetwork(t *testing.T, g *graph.Graph, sc *dpScratch) map[string]int {
	t.Helper()
	ctx := context.Background()
	want, err := DecomposeWith(g, EngineFlow)
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	arith := map[string]int{}
	var positive []int
	for v := 0; v < g.N(); v++ {
		if g.Weight(v).Sign() > 0 {
			positive = append(positive, v)
		}
	}
	if len(positive) == 0 {
		return arith
	}
	posSub, posOrig := g.InducedSubgraph(positive)
	net := sc.lambdaNet(posSub)
	remaining := make([]int, posSub.N())
	for i := range remaining {
		remaining[i] = i
	}
	past := numeric.FromBig(new(big.Rat).SetFrac(big.NewInt(3), new(big.Int).Lsh(big.NewInt(1), 100)))
	for stage := 0; len(remaining) > 0; stage++ {
		sub, orig := posSub.InducedSubgraph(remaining)
		r := &lambdaReferee{t: t, stage: stage, got: newFlowOracle(ctx, net, sub, orig), ref: &stageFlowRef{g: sub}, arith: arith}
		alpha, bLocal, err := maxBottleneck(ctx, sub, r, nil)
		if err != nil {
			t.Fatalf("stage %d: %v", stage, err)
		}
		for _, lambda := range []numeric.Rat{numeric.One, alpha.Add(numeric.New(1, 1<<20)), numeric.New(1+int64(stage), 1<<48), past, alpha} {
			r.value(lambda)
			r.maximal(lambda)
		}
		cLocal := sub.NeighborhoodSet(bLocal)
		if stage >= len(want.Pairs) || !want.Pairs[stage].Alpha.Equal(alpha) ||
			!equalInts(positiveOf(g, want.Pairs[stage].B), mapBack(mapBack(bLocal, orig), posOrig)) ||
			!equalInts(positiveOf(g, want.Pairs[stage].C), mapBack(mapBack(cLocal, orig), posOrig)) {
			t.Fatalf("stage %d: α=%v B=%v C=%v, decomposition %v", stage, alpha, bLocal, cLocal, want)
		}
		remove := make(map[int]bool)
		for _, v := range append(append([]int(nil), bLocal...), cLocal...) {
			remove[orig[v]] = true
		}
		next := remaining[:0]
		for _, v := range remaining {
			if !remove[v] {
				next = append(next, v)
			}
		}
		remaining = next
	}
	return arith
}

// positiveOf keeps the positive-weight vertices of S.
func positiveOf(g *graph.Graph, S []int) []int {
	var out []int
	for _, v := range S {
		if g.Weight(v).Sign() > 0 {
			out = append(out, v)
		}
	}
	return out
}

// lambdaWeight draws a weight for the λ-network corpus: zero, small
// integers, k/2^48 dust, small fractions, or a value whose parts are past
// int64 (which pushes solves onto the math/big scaling and past the
// fixed-width bound onto the rational Dinic).
func lambdaWeight(rng *rand.Rand) numeric.Rat {
	switch rng.Intn(8) {
	case 0:
		return numeric.Zero
	case 1, 2:
		return numeric.FromInt(1 + rng.Int63n(20))
	case 3:
		return numeric.New(1+rng.Int63n(1<<48), 1<<48)
	case 4:
		return numeric.FromInt(rng.Int63n(20)).Add(numeric.New(rng.Int63n(1<<48), 1<<48))
	case 5:
		num := new(big.Int).Lsh(big.NewInt(1+rng.Int63n(1000)), 64)
		den := new(big.Int).Exp(big.NewInt(3), big.NewInt(30+rng.Int63n(20)), nil)
		return numeric.FromBig(new(big.Rat).SetFrac(num, den))
	}
	return numeric.New(1+rng.Int63n(100), 1+rng.Int63n(12))
}

// lambdaGraph draws a corpus graph of 1–16 vertices: one of the five
// topology families, or a random graph that may be disconnected and hold
// isolated vertices, with lambdaWeight weights.
func lambdaGraph(rng *rand.Rand, nRaw uint8, kind uint8) *graph.Graph {
	n := 1 + int(nRaw)%16
	var g *graph.Graph
	if n >= 5 {
		switch kind % 7 {
		case 0:
			g = graph.RandomRing(rng, n, graph.DistUniform)
		case 1:
			g = graph.RandomTree(rng, n, graph.DistUniform)
		case 2:
			g = graph.RandomBarbell(rng, n, graph.DistUniform)
		case 3:
			g = graph.SmallWorld(rng, n, 0.3, graph.DistUniform)
		case 4:
			g = graph.RandomConnected(rng, n, 0.15, graph.DistUniform)
		}
	}
	if g == nil {
		g = graph.New(n)
		p := rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.MustAddEdge(u, v)
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		g.MustSetWeight(v, lambdaWeight(rng))
	}
	return g
}

// TestLambdaNetworkMatchesPerStage referees the shared λ-network against
// the per-stage networks on 120 corpus graphs, each rebuilt in the one
// workspace the previous graph's network was built in, and requires the
// corpus to reach both the fixed-width and the rational Dinic.
func TestLambdaNetworkMatchesPerStage(t *testing.T) {
	arith := map[string]int{}
	sc := new(dpScratch)
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := lambdaGraph(rng, uint8(rng.Intn(256)), uint8(seed))
		for k, c := range checkLambdaNetwork(t, g, sc) {
			arith[k] += c
		}
	}
	if arith["fixed"] == 0 || arith["rat"] == 0 {
		t.Fatalf("solves by arithmetic %v: the corpus must reach both", arith)
	}
}

// FuzzLambdaNetwork referees the decomposition's one λ-network against a
// fresh network per stage at every λ of every stage (value, w(S), maximal
// set, pushes, arithmetic) on random general graphs and the five topology
// families, with zero, integer, k/2^48 dust and past-int64 weights. The
// network is rebuilt in a workspace that has first decomposed another
// corpus graph on the flow engine, smaller or larger (prevRaw sizes it;
// 0 leaves the workspace fresh), so the rebuild must leave no trace of the
// network it reuses. Its 40 seeds run with every test pass.
func FuzzLambdaNetwork(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed), uint8(seed*37%256))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kind, prevRaw uint8) {
		g := lambdaGraph(rand.New(rand.NewSource(seed)), nRaw, kind)
		sc := new(dpScratch)
		if prevRaw != 0 {
			prev := lambdaGraph(rand.New(rand.NewSource(^seed)), prevRaw, prevRaw/16)
			if _, err := decomposeIn(context.Background(), prev, EngineFlow, sc); err != nil {
				t.Fatalf("previous graph: %v", err)
			}
		}
		checkLambdaNetwork(t, g, sc)
	})
}

// TestPathsAndCyclesMatchesDPOracle requires the automatic engine's degree
// test to accept exactly the graphs newDPOracle can serve.
func TestPathsAndCyclesMatchesDPOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	accepted := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		g := graph.New(n)
		p := 0.05 + 0.4*rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.MustAddEdge(u, v)
				}
			}
			g.MustSetWeight(u, numeric.FromInt(1+rng.Int63n(5)))
		}
		_, err := newDPOracle(g, new(dpScratch))
		if ok := pathsAndCycles(g); ok != (err == nil) {
			t.Fatalf("trial %d: pathsAndCycles %v, newDPOracle error %v on %v", trial, ok, err, g.Edges())
		}
		if err == nil {
			accepted++
		}
	}
	if accepted < 50 || accepted > 450 {
		t.Fatalf("%d of 500 graphs are paths and cycles: the corpus must hold both kinds", accepted)
	}
}
