package bottleneck

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

func mustDecompose(t *testing.T, g *graph.Graph, e Engine) *Decomposition {
	t.Helper()
	d, err := DecomposeWith(g, e)
	if err != nil {
		t.Fatalf("DecomposeWith(%v): %v", e, err)
	}
	return d
}

func TestFig1Decomposition(t *testing.T) {
	// The paper's Fig. 1: (B1, C1) = ({v1, v2}, {v3}) with α1 = 1/3 and
	// (B2, C2) = ({v4, v5, v6}, {v4, v5, v6}) with α2 = 1.
	g := graph.Fig1Graph()
	for _, e := range []Engine{EngineFlow, EngineBrute} {
		d := mustDecompose(t, g, e)
		if len(d.Pairs) != 2 {
			t.Fatalf("%v: got %d pairs: %v", e, len(d.Pairs), d)
		}
		if !reflect.DeepEqual(d.Pairs[0].B, []int{0, 1}) || !reflect.DeepEqual(d.Pairs[0].C, []int{2}) {
			t.Errorf("%v: pair 1 = %v", e, d.Pairs[0])
		}
		if !d.Pairs[0].Alpha.Equal(numeric.New(1, 3)) {
			t.Errorf("%v: α1 = %v, want 1/3", e, d.Pairs[0].Alpha)
		}
		if !reflect.DeepEqual(d.Pairs[1].B, []int{3, 4, 5}) || !reflect.DeepEqual(d.Pairs[1].C, []int{3, 4, 5}) {
			t.Errorf("%v: pair 2 = %v", e, d.Pairs[1])
		}
		if !d.Pairs[1].Alpha.Equal(numeric.One) {
			t.Errorf("%v: α2 = %v, want 1", e, d.Pairs[1].Alpha)
		}
		if err := d.Validate(g); err != nil {
			t.Errorf("%v: Validate: %v", e, err)
		}
		// Classes: v1, v2 in B; v3 in C; triangle in both.
		for v, want := range []Class{ClassB, ClassB, ClassC, ClassBoth, ClassBoth, ClassBoth} {
			if d.ClassOf(v) != want {
				t.Errorf("%v: class of %d = %v, want %v", e, v, d.ClassOf(v), want)
			}
		}
	}
}

func TestSingleEdge(t *testing.T) {
	// u(1) - v(3): B = {v}, C = {u}, α = 1/3.
	g := graph.Path(numeric.Ints(1, 3))
	d := mustDecompose(t, g, EngineAuto)
	if len(d.Pairs) != 1 {
		t.Fatalf("pairs: %v", d)
	}
	if !reflect.DeepEqual(d.Pairs[0].B, []int{1}) || !reflect.DeepEqual(d.Pairs[0].C, []int{0}) {
		t.Fatalf("pair = %v", d.Pairs[0])
	}
	if !d.Pairs[0].Alpha.Equal(numeric.New(1, 3)) {
		t.Fatalf("α = %v", d.Pairs[0].Alpha)
	}
}

func TestSingleEdgeEqualWeights(t *testing.T) {
	g := graph.Path(numeric.Ints(2, 2))
	d := mustDecompose(t, g, EngineAuto)
	if len(d.Pairs) != 1 || !d.Pairs[0].Alpha.Equal(numeric.One) {
		t.Fatalf("decomposition = %v", d)
	}
	if !reflect.DeepEqual(d.Pairs[0].B, []int{0, 1}) || !d.Pairs[0].selfPaired() {
		t.Fatalf("expected B = C = {0,1}: %v", d.Pairs[0])
	}
	if d.ClassOf(0) != ClassBoth || !d.ClassOf(0).IsB() || !d.ClassOf(0).IsC() {
		t.Fatalf("class = %v", d.ClassOf(0))
	}
}

func TestUnitRingIsSelfPaired(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8} {
		g := graph.Ring(graph.RandomWeights(rand.New(rand.NewSource(1)), n, graph.DistUnit))
		d := mustDecompose(t, g, EngineAuto)
		if len(d.Pairs) != 1 {
			t.Fatalf("n=%d: %v", n, d)
		}
		if !d.Pairs[0].Alpha.Equal(numeric.One) || !d.Pairs[0].selfPaired() {
			t.Fatalf("n=%d: unit ring should be one self-pair with α = 1: %v", n, d)
		}
	}
}

func TestHeavyMiddlePath(t *testing.T) {
	// a(1) - b(100) - c(1): B = {b}, C = {a, c}, α = 2/100 = 1/50.
	g := graph.Path(numeric.Ints(1, 100, 1))
	d := mustDecompose(t, g, EngineAuto)
	if len(d.Pairs) != 1 {
		t.Fatalf("%v", d)
	}
	p := d.Pairs[0]
	if !reflect.DeepEqual(p.B, []int{1}) || !reflect.DeepEqual(p.C, []int{0, 2}) || !p.Alpha.Equal(numeric.New(1, 50)) {
		t.Fatalf("%v", p)
	}
	// Utilities per Proposition 6.
	if got := d.Utility(g, 1); !got.Equal(numeric.FromInt(2)) {
		t.Errorf("U_b = %v, want 2", got)
	}
	if got := d.Utility(g, 0); !got.Equal(numeric.FromInt(50)) {
		t.Errorf("U_a = %v, want 50", got)
	}
}

func TestMaximalityAbsorbsCoveredVertices(t *testing.T) {
	// Path a(1)-b(2)-c(100)-d(2)-e(1): the bottleneck {c} has α = 4/100 but
	// the MAXIMAL bottleneck is {a, c, e} with α = 4/102: a and e join
	// because their neighborhoods are already covered.
	g := graph.Path(numeric.Ints(1, 2, 100, 2, 1))
	for _, e := range []Engine{EngineFlow, EnginePathDP, EngineBrute} {
		d := mustDecompose(t, g, e)
		if len(d.Pairs) != 1 {
			t.Fatalf("%v: %v", e, d)
		}
		p := d.Pairs[0]
		if !reflect.DeepEqual(p.B, []int{0, 2, 4}) || !reflect.DeepEqual(p.C, []int{1, 3}) {
			t.Fatalf("%v: %v", e, p)
		}
		if !p.Alpha.Equal(numeric.New(4, 102)) {
			t.Fatalf("%v: α = %v", e, p.Alpha)
		}
	}
}

func TestStarDecomposition(t *testing.T) {
	// Star center(1), 3 leaves of weight 5 each: B = leaves, C = {center},
	// α = 1/15.
	g := graph.Star(numeric.Ints(1, 5, 5, 5))
	d := mustDecompose(t, g, EngineFlow)
	if len(d.Pairs) != 1 {
		t.Fatalf("%v", d)
	}
	p := d.Pairs[0]
	if !reflect.DeepEqual(p.B, []int{1, 2, 3}) || !reflect.DeepEqual(p.C, []int{0}) || !p.Alpha.Equal(numeric.New(1, 15)) {
		t.Fatalf("%v", p)
	}
	// EnginePathDP must refuse the star.
	if _, err := DecomposeWith(g, EnginePathDP); err == nil {
		t.Error("EnginePathDP accepted a star")
	}
}

func TestTwoStageRing(t *testing.T) {
	// Ring 0(1)-1(100)-2(1)-3(5)-4(5)-0: B1 should capture the heavy vertex.
	g := graph.Ring(numeric.Ints(1, 100, 1, 5, 5))
	for _, e := range []Engine{EngineFlow, EnginePathDP, EngineBrute} {
		d := mustDecompose(t, g, e)
		if err := d.Validate(g); err != nil {
			t.Fatalf("%v: %v\n%v", e, err, d)
		}
		if len(d.Pairs) != 2 {
			t.Fatalf("%v: want 2 pairs: %v", e, d)
		}
		if !reflect.DeepEqual(d.Pairs[0].B, []int{1}) || !reflect.DeepEqual(d.Pairs[0].C, []int{0, 2}) {
			t.Fatalf("%v: pair1 = %v", e, d.Pairs[0])
		}
		if !d.Pairs[0].Alpha.Equal(numeric.New(2, 100)) {
			t.Fatalf("%v: α1 = %v", e, d.Pairs[0].Alpha)
		}
		if !reflect.DeepEqual(d.Pairs[1].B, []int{3, 4}) || !d.Pairs[1].Alpha.Equal(numeric.One) {
			t.Fatalf("%v: pair2 = %v", e, d.Pairs[1])
		}
	}
}

func TestZeroWeightVertexJoinsPair(t *testing.T) {
	// Path v1(0) - a(1) - b(3): bottleneck {b} with α = 1/3, C = {a};
	// the zero-weight leaf v1 is absorbed into B by maximality because
	// Γ(v1) = {a} ⊆ C.
	g := graph.Path([]numeric.Rat{numeric.Zero, numeric.One, numeric.FromInt(3)})
	for _, e := range []Engine{EngineFlow, EnginePathDP, EngineBrute} {
		d := mustDecompose(t, g, e)
		if len(d.Pairs) != 1 {
			t.Fatalf("%v: %v", e, d)
		}
		p := d.Pairs[0]
		if !reflect.DeepEqual(p.B, []int{0, 2}) || !reflect.DeepEqual(p.C, []int{1}) {
			t.Fatalf("%v: %v", e, p)
		}
		if !p.Alpha.Equal(numeric.New(1, 3)) {
			t.Fatalf("%v: α = %v", e, p.Alpha)
		}
		if got := d.Utility(g, 0); !got.IsZero() {
			t.Fatalf("%v: zero-weight vertex has utility %v", e, got)
		}
	}
}

func TestAllZeroWeightsConvention(t *testing.T) {
	g := graph.Path([]numeric.Rat{numeric.Zero, numeric.Zero, numeric.Zero})
	d, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Pairs) != 1 || !d.Pairs[0].Alpha.Equal(numeric.One) || !reflect.DeepEqual(d.Pairs[0].B, []int{0, 1, 2}) {
		t.Fatalf("%v", d)
	}
	for v := 0; v < 3; v++ {
		if !d.Utility(g, v).IsZero() {
			t.Fatalf("utility of penniless agent %d = %v", v, d.Utility(g, v))
		}
	}
}

func TestEmptyGraphFails(t *testing.T) {
	if _, err := Decompose(graph.New(0)); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBruteEngineSizeLimit(t *testing.T) {
	g := graph.Ring(graph.RandomWeights(rand.New(rand.NewSource(2)), bruteMaxN+1, graph.DistUniform))
	if _, err := DecomposeWith(g, EngineBrute); err == nil {
		t.Fatal("brute engine accepted an oversized graph")
	}
}

func TestMaxBottleneckDirect(t *testing.T) {
	g := graph.Path(numeric.Ints(1, 2, 100, 2, 1))
	for _, e := range []Engine{EngineFlow, EnginePathDP, EngineBrute} {
		B, alpha, err := MaxBottleneck(g, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !reflect.DeepEqual(B, []int{0, 2, 4}) || !alpha.Equal(numeric.New(4, 102)) {
			t.Fatalf("%v: B=%v α=%v", e, B, alpha)
		}
	}
	if _, _, err := MaxBottleneck(graph.Star(numeric.Ints(1, 1, 1, 1)), EnginePathDP); err == nil {
		t.Error("path-DP accepted a star")
	}
	zero := graph.Path([]numeric.Rat{numeric.Zero, numeric.Zero})
	if _, _, err := MaxBottleneck(zero, EngineAuto); err == nil {
		t.Error("zero-weight graph accepted")
	}
}

func TestQuickMaxBottleneckDominatesRandomSubsets(t *testing.T) {
	// Property: α(B₁) ≤ α(S) for every sampled S, and any S attaining the
	// minimum is contained in B₁.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(8) + 3
		g := graph.RandomRing(rng, n, graph.WeightDist(rng.Intn(3)))
		B, alpha, err := MaxBottleneck(g, EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		inB := make(map[int]bool, len(B))
		for _, v := range B {
			inB[v] = true
		}
		for probe := 0; probe < 40; probe++ {
			var S []int
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					S = append(S, v)
				}
			}
			if len(S) == 0 || g.WeightOf(S).IsZero() {
				continue
			}
			a := Alpha(g, S)
			if a.Less(alpha) {
				t.Fatalf("trial %d: α(%v)=%v < α_min=%v", trial, S, a, alpha)
			}
			if a.Equal(alpha) {
				for _, v := range S {
					if !inB[v] {
						t.Fatalf("trial %d: minimizer %v escapes maximal bottleneck %v", trial, S, B)
					}
				}
			}
		}
	}
}

// decompositionsEqual compares pairs including α values.
func decompositionsEqual(a, b *Decomposition) bool {
	if len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if !reflect.DeepEqual(a.Pairs[i].B, b.Pairs[i].B) ||
			!reflect.DeepEqual(a.Pairs[i].C, b.Pairs[i].C) ||
			!a.Pairs[i].Alpha.Equal(b.Pairs[i].Alpha) {
			return false
		}
	}
	return true
}

func TestEnginesAgreeOnRandomRings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(10) + 3
		dist := graph.WeightDist(rng.Intn(4))
		g := graph.RandomRing(rng, n, dist)
		dFlow := mustDecompose(t, g, EngineFlow)
		dDP := mustDecompose(t, g, EnginePathDP)
		dBrute := mustDecompose(t, g, EngineBrute)
		if !decompositionsEqual(dFlow, dBrute) {
			t.Fatalf("trial %d (n=%d, %v): flow %v != brute %v\ngraph %v",
				trial, n, dist, dFlow, dBrute, g.Weights())
		}
		if !decompositionsEqual(dDP, dBrute) {
			t.Fatalf("trial %d (n=%d, %v): dp %v != brute %v\ngraph %v",
				trial, n, dist, dDP, dBrute, g.Weights())
		}
		if err := dBrute.Validate(g); err != nil {
			t.Fatalf("trial %d: Validate: %v\n%v", trial, err, dBrute)
		}
	}
}

func TestEnginesAgreeOnRandomPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(12) + 1
		dist := graph.WeightDist(rng.Intn(4))
		g := graph.Path(graph.RandomWeights(rng, n, dist))
		dFlow := mustDecompose(t, g, EngineFlow)
		dDP := mustDecompose(t, g, EnginePathDP)
		dBrute := mustDecompose(t, g, EngineBrute)
		if !decompositionsEqual(dFlow, dBrute) || !decompositionsEqual(dDP, dBrute) {
			t.Fatalf("trial %d (n=%d): engines disagree\nflow: %v\ndp: %v\nbrute: %v\nweights %v",
				trial, n, dFlow, dDP, dBrute, g.Weights())
		}
	}
}

func TestFlowAgreesWithBruteOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(9) + 2
		g := graph.RandomConnected(rng, n, rng.Float64()*0.7, graph.WeightDist(rng.Intn(4)))
		dFlow := mustDecompose(t, g, EngineFlow)
		dBrute := mustDecompose(t, g, EngineBrute)
		if !decompositionsEqual(dFlow, dBrute) {
			t.Fatalf("trial %d: flow %v != brute %v\n%v weights %v",
				trial, dFlow, dBrute, g.Edges(), g.Weights())
		}
		if err := dFlow.Validate(g); err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, dFlow)
		}
	}
}

func TestUtilitiesSumToTotalWeightOnConnectedGraphs(t *testing.T) {
	// Every agent gives away its whole endowment in the BD allocation, so
	// utilities must redistribute exactly the total weight.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(9) + 2
		g := graph.RandomConnected(rng, n, 0.4, graph.DistUniform)
		d := mustDecompose(t, g, EngineFlow)
		if got := numeric.Sum(d.Utilities(g)); !got.Equal(g.TotalWeight()) {
			t.Fatalf("trial %d: ΣU = %v, Σw = %v\n%v", trial, got, g.TotalWeight(), d)
		}
	}
}

func TestMaximalBottleneckContainsEveryBottleneck(t *testing.T) {
	// B_1 must be the union of all α-minimizing sets.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(7) + 2
		g := graph.RandomConnected(rng, n, 0.5, graph.WeightDist(rng.Intn(3)))
		d := mustDecompose(t, g, EngineFlow)
		alphaMin := d.Pairs[0].Alpha
		inB1 := make(map[int]bool)
		for _, v := range d.Pairs[0].B {
			inB1[v] = true
		}
		for mask := 1; mask < 1<<uint(n); mask++ {
			var S []int
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					S = append(S, v)
				}
			}
			if g.WeightOf(S).IsZero() {
				continue
			}
			a := Alpha(g, S)
			if a.Less(alphaMin) {
				t.Fatalf("trial %d: α(%v) = %v < α_min = %v", trial, S, a, alphaMin)
			}
			if a.Equal(alphaMin) {
				for _, v := range S {
					if !inB1[v] {
						t.Fatalf("trial %d: bottleneck %v not contained in maximal B1 %v", trial, S, d.Pairs[0].B)
					}
				}
			}
		}
	}
}

func TestStructureSignature(t *testing.T) {
	g := graph.Path(numeric.Ints(1, 100, 1))
	d := mustDecompose(t, g, EngineAuto)
	want := "B{1}C{0,2};"
	if got := d.StructureSignature(); got != want {
		t.Errorf("signature = %q, want %q", got, want)
	}
	// Changing a weight inside the same structure keeps the signature.
	g2 := graph.Path(numeric.Ints(1, 90, 1))
	d2 := mustDecompose(t, g2, EngineAuto)
	if d.StructureSignature() != d2.StructureSignature() {
		t.Error("signature should not depend on α")
	}
	if d.String() == d2.String() {
		t.Error("String should include α and differ")
	}
}

func TestAlphaPanicsOnZeroWeightSet(t *testing.T) {
	g := graph.Path([]numeric.Rat{numeric.Zero, numeric.One})
	defer func() {
		if recover() == nil {
			t.Fatal("Alpha of zero-weight set did not panic")
		}
	}()
	Alpha(g, []int{0})
}

func TestDisconnectedGraphDecomposes(t *testing.T) {
	// Two components: heavy-middle path and a unit edge.
	g := graph.New(5)
	g.MustSetWeight(0, numeric.One)
	g.MustSetWeight(1, numeric.FromInt(100))
	g.MustSetWeight(2, numeric.One)
	g.MustSetWeight(3, numeric.One)
	g.MustSetWeight(4, numeric.One)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	for _, e := range []Engine{EngineFlow, EnginePathDP, EngineBrute} {
		d := mustDecompose(t, g, e)
		if err := d.Validate(g); err != nil {
			t.Fatalf("%v: %v\n%v", e, err, d)
		}
		if len(d.Pairs) != 2 {
			t.Fatalf("%v: %v", e, d)
		}
		if !reflect.DeepEqual(d.Pairs[0].B, []int{1}) {
			t.Fatalf("%v: pair1 %v", e, d.Pairs[0])
		}
		if !reflect.DeepEqual(d.Pairs[1].B, []int{3, 4}) || !d.Pairs[1].Alpha.Equal(numeric.One) {
			t.Fatalf("%v: pair2 %v", e, d.Pairs[1])
		}
	}
}

func TestIsolatedVertexGetsAlphaZeroPairRejectedByValidate(t *testing.T) {
	// An isolated positive-weight vertex yields an α = 0 pair, which is
	// outside Proposition 3's guarantees (they assume meaningful exchange);
	// Decompose must fail cleanly rather than emit garbage.
	g := graph.New(3)
	g.MustSetWeight(0, numeric.One)
	g.MustSetWeight(1, numeric.One)
	g.MustSetWeight(2, numeric.FromInt(5))
	g.MustAddEdge(0, 1)
	_, err := Decompose(g)
	if err == nil {
		// If it succeeds, the α = 0 pair must at least be flagged by Validate.
		d := mustDecompose(t, g, EngineAuto)
		if vErr := d.Validate(g); vErr == nil {
			t.Fatal("isolated positive-weight vertex passed Validate")
		}
	}
}

// TestDecomposeStageSpansRecordIterations reads a traced decomposition back
// from its span tree: one bottleneck.stage span per pair, in order, each
// with its residual size, one dinkelbach_iter event per iteration (λ > 0,
// g(λ) ≤ 0, and g(λ) = 0 exactly at the last) and the pair's α. Tracing
// must not change the result.
func TestDecomposeStageSpansRecordIterations(t *testing.T) {
	g := graph.Ring(numeric.Ints(1, 100, 1, 5, 5))
	tr := obs.NewTrace("test")
	d, err := DecomposeCtx(tr.Context(context.Background()), g, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	plain, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if !decompositionsEqual(d, plain) {
		t.Fatal("traced decomposition differs from plain")
	}
	var stages []*obs.SpanSnapshot
	tr.Snapshot().Root.Walk(func(sp *obs.SpanSnapshot) {
		if sp.Name == "bottleneck.stage" {
			stages = append(stages, sp)
		}
	})
	if len(stages) != len(d.Pairs) {
		t.Fatalf("%d stage spans for %d pairs", len(stages), len(d.Pairs))
	}
	remaining := int64(g.N())
	for i, sp := range stages {
		if sp.Attr("stage") != strconv.Itoa(i+1) || sp.Counter("remaining") != remaining {
			t.Fatalf("stage span %d: stage=%q remaining=%d, want %d and %d", i, sp.Attr("stage"), sp.Counter("remaining"), i+1, remaining)
		}
		remaining -= sp.Counter("pair_size")
		if len(sp.Events) == 0 || int64(len(sp.Events)) != sp.Counter("iters") {
			t.Fatalf("stage %d: %d events for %d iterations", i+1, len(sp.Events), sp.Counter("iters"))
		}
		for k, ev := range sp.Events {
			lambda, value := ev.Attrs[0].Value, ev.Attrs[1].Value
			if ev.Name != "dinkelbach_iter" || ev.Attrs[0].Key != "lambda" || ev.Attrs[1].Key != "value" {
				t.Fatalf("stage %d: unexpected event %+v", i+1, ev)
			}
			if strings.HasPrefix(lambda, "-") || lambda == "0" {
				t.Fatalf("stage %d: non-positive λ %s", i+1, lambda)
			}
			last := k == len(sp.Events)-1
			if (value == "0") != last || (!last && !strings.HasPrefix(value, "-")) {
				t.Fatalf("stage %d iteration %d of %d: g(λ) = %s", i+1, k+1, len(sp.Events), value)
			}
		}
		if sp.Attr("alpha") != d.Pairs[i].Alpha.String() {
			t.Fatalf("stage %d: α %s, pair α %v", i+1, sp.Attr("alpha"), d.Pairs[i].Alpha)
		}
	}
}

// TestParseEngine covers every engine name, "" (auto, as on the wire) and
// an unknown name, whose error text the wire's golden error body pins.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{"": EngineAuto, "auto": EngineAuto, "flow": EngineFlow, "path-dp": EnginePathDP, "brute": EngineBrute} {
		if got, err := ParseEngine(name); err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseEngine("turbo"); err == nil || err.Error() != `unknown engine "turbo"` {
		t.Errorf("ParseEngine(turbo) error = %v", err)
	}
}

// TestSignatureTextTwoDigitIDs pins the exact StructureSignature and String
// text of a decomposition whose pairs hold two-digit vertex ids.
func TestSignatureTextTwoDigitIDs(t *testing.T) {
	g := graph.Ring(numeric.Ints(1, 5, 1, 1, 3, 1, 1, 1, 2, 1, 7, 2))
	d := mustDecompose(t, g, EngineAuto)
	if got, want := d.StructureSignature(), "B{1}C{0,2};B{10}C{9,11};B{4,6,8}C{3,5,7};"; got != want {
		t.Errorf("signature = %q, want %q", got, want)
	}
	if got, want := d.String(), "(B1{1}, C1{0,2}, α=2/5) (B2{10}, C2{9,11}, α=3/7) (B3{4,6,8}, C3{3,5,7}, α=1/2)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
