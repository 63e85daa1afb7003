package mechanism

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/scan"
	"repro/internal/sybil"
)

func TestRegistryResolution(t *testing.T) {
	names := Names()
	want := []string{"bd", "eqsplit", "pr"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	m, err := Get("")
	if err != nil {
		t.Fatalf("Get(\"\"): %v", err)
	}
	if m.Name() != Default {
		t.Fatalf("Get(\"\") resolved %q, want Default %q", m.Name(), Default)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get(nope) succeeded")
	} else if ue, ok := err.(*ErrUnknown); !ok || ue.Name != "nope" {
		t.Fatalf("Get(nope) error = %#v, want *ErrUnknown{nope}", err)
	} else if ue.Error() == "" {
		t.Fatal("empty ErrUnknown message")
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Mechanism
	}{
		{"duplicate", BD{}},
		{"empty name", named("")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%s) did not panic", tc.name)
				}
			}()
			Register(tc.m)
		})
	}
}

// named is a minimal test mechanism with a configurable name.
type named string

func (n named) Name() string { return string(n) }
func (named) Allocate(context.Context, *graph.Graph) (*allocation.Allocation, error) {
	return nil, nil
}

func TestInfosCapabilities(t *testing.T) {
	infos := Infos()
	byName := make(map[string]Info, len(infos))
	for i, in := range infos {
		byName[in.Name] = in
		if i > 0 && infos[i-1].Name >= in.Name {
			t.Fatalf("Infos not sorted: %q before %q", infos[i-1].Name, in.Name)
		}
		if in.Description == "" {
			t.Errorf("mechanism %q has no description", in.Name)
		}
	}
	bd := byName["bd"]
	if !bd.Certifiable || !bd.ExactRatio {
		t.Fatalf("bd info = %+v, want certifiable and exact_ratio", bd)
	}
	for _, n := range []string{"pr", "eqsplit"} {
		if in := byName[n]; in.Certifiable || in.ExactRatio {
			t.Fatalf("%s info = %+v, want no capabilities", n, in)
		}
	}
}

// corpus returns deterministic mixed test graphs (rings and general).
func corpus(t *testing.T, n int) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	var gs []*graph.Graph
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			gs = append(gs, graph.RandomRing(rng, 4+i%5, graph.DistUniform))
		case 1:
			gs = append(gs, graph.RandomConnected(rng, 4+i%4, 0.5, graph.DistSkewed))
		default:
			gs = append(gs, graph.RandomTree(rng, 3+i%5, graph.DistUniform))
		}
	}
	return gs
}

func TestBDMatchesDirectPipeline(t *testing.T) {
	ctx := context.Background()
	m, err := Get("bd")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range corpus(t, 12) {
		d, err := bottleneck.DecomposeCtx(ctx, g, bottleneck.EngineAuto)
		if err != nil {
			t.Fatalf("graph %d: decompose: %v", i, err)
		}
		want, err := allocation.Compute(g, d)
		if err != nil {
			t.Fatalf("graph %d: compute: %v", i, err)
		}
		got, err := m.Allocate(ctx, g)
		if err != nil {
			t.Fatalf("graph %d: mechanism allocate: %v", i, err)
		}
		assertSameAllocation(t, g, want, got)
	}
}

func assertSameAllocation(t *testing.T, g *graph.Graph, want, got *allocation.Allocation) {
	t.Helper()
	if want.N() != got.N() || want.Support() != got.Support() {
		t.Fatalf("shape mismatch: n %d/%d support %d/%d", want.N(), got.N(), want.Support(), got.Support())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !want.Get(u, v).Equal(got.Get(u, v)) {
				t.Fatalf("x[%d][%d] = %v, want %v", u, v, got.Get(u, v), want.Get(u, v))
			}
		}
	}
}

// TestAllocationInvariants: every backend must conserve endowments — each
// agent with at least one neighbor and positive weight sends out exactly w_v
// (BD exempts isolated/zero-α agents, which the corpus avoids for rings).
func TestAllocationInvariants(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomRing(rng, 4+trial, graph.DistUniform)
		for _, name := range Names() {
			m, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := m.Allocate(ctx, g)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			totalU := numeric.Sum(a.Utilities())
			if !totalU.Equal(g.TotalWeight()) {
				t.Fatalf("%s trial %d: total utility %v, want total weight %v",
					name, trial, totalU, g.TotalWeight())
			}
			for v := 0; v < g.N(); v++ {
				if sent := a.SentBy(v); !sent.Equal(g.Weight(v)) {
					t.Fatalf("%s trial %d: vertex %d sends %v, owns %v",
						name, trial, v, sent, g.Weight(v))
				}
				for _, u := range g.Neighbors(v) {
					if a.Get(v, u).Sign() < 0 {
						t.Fatalf("%s trial %d: negative transfer x[%d][%d]", name, trial, v, u)
					}
				}
			}
		}
	}
}

// TestAllocateDeterministic: repeated runs must be bit-identical — the cache
// and tournament layers depend on it.
func TestAllocateDeterministic(t *testing.T) {
	ctx := context.Background()
	g := graph.RandomRing(rand.New(rand.NewSource(3)), 7, graph.DistSkewed)
	for _, name := range Names() {
		m, _ := Get(name)
		a1, err := m.Allocate(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := m.Allocate(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAllocation(t, g, a1, a2)
	}
}

func TestPREdgeCases(t *testing.T) {
	ctx := context.Background()
	m := PR{}
	if _, err := m.Allocate(ctx, graph.New(0)); err == nil {
		t.Fatal("PR on empty graph succeeded")
	}
	if _, err := (EqSplit{}).Allocate(ctx, graph.New(0)); err == nil {
		t.Fatal("EqSplit on empty graph succeeded")
	}
	// Isolated and zero-weight vertices must not trip the iteration.
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustSetWeight(0, numeric.FromInt(2))
	g.MustSetWeight(1, numeric.Zero)
	a, err := m.Allocate(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SentBy(0).Equal(numeric.FromInt(2)) {
		t.Fatalf("vertex 0 sends %v, want 2", a.SentBy(0))
	}
	if !a.SentBy(2).IsZero() {
		t.Fatalf("isolated vertex sends %v", a.SentBy(2))
	}
	// Canceled context aborts the iteration.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.Allocate(cctx, graph.Ring(numeric.Ints(1, 2, 3, 4))); err == nil {
		t.Fatal("canceled PR allocate succeeded")
	}
}

// TestPRApproachesBDOnUniformRing: on a uniform ring the BD equilibrium is
// the equal split itself, which is also the PR fixed point — the iteration
// must land exactly on it.
func TestPRApproachesBDOnUniformRing(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(3, 3, 3, 3, 3))
	bd, err := BD{}.Allocate(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PR{}.Allocate(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAllocation(t, g, bd, pr)
}

// TestPRKeepsSplitOnZeroIncome pins PR's zero-income rule: a vertex that
// received nothing keeps the lattice split it last reached, not the equal
// split the float step restarts from. On the ring (64, 2^32, 2^44) vertex 0
// ends with no income and a split far from 32/32.
func TestPRKeepsSplitOnZeroIncome(t *testing.T) {
	g := graph.Ring([]numeric.Rat{numeric.FromInt(64), numeric.FromInt(1 << 32), numeric.FromInt(1 << 44)})
	a, err := PR{}.Allocate(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if u := a.Utility(0); !u.IsZero() {
		t.Fatalf("U_0 = %v, want 0", u)
	}
	for u, want := range map[int]numeric.Rat{1: numeric.New(4095, 262144), 2: numeric.New(16773121, 262144)} {
		if got := a.Get(0, u); !got.Equal(want) {
			t.Errorf("x_0%d = %v, want %v", u, got, want)
		}
	}
}

func TestLatticeFloor(t *testing.T) {
	wv := numeric.FromInt(3)
	// One lattice step is wv/steps.
	const steps = 1 << prPrec
	got := latticeFloor(numeric.New(18, 7*steps), wv) // 6/7 of one step → ⌊6/7⌋ = 0
	if !got.IsZero() {
		t.Fatalf("latticeFloor(6/7 step) = %v, want 0", got)
	}
	point := numeric.New(5*3, steps) // the lattice point 5·wv/2^prPrec
	if got = latticeFloor(point, wv); !got.Equal(point) {
		t.Fatalf("latticeFloor(%v) = %v, want it kept", point, got)
	}
	if !latticeFloor(numeric.FromInt(-1), wv).IsZero() {
		t.Fatal("negative input must floor to zero")
	}
}

func TestGenericSweepDelegatesForBD(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(4, 1, 5, 2, 3))
	// The reference runs cold: no evaluation cache, no incremental engine.
	cold, err := core.NewInstance(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetEvalCache(false)
	cold.SetIncremental(false)
	want, err := sybil.NewSweep(cold.W(), cold.HonestU, 16, func(ctx context.Context, w1, w2 numeric.Rat) (numeric.Rat, error) {
		ev, err := cold.EvalPairCtx(ctx, w1, w2)
		if err != nil {
			return numeric.Rat{}, err
		}
		return ev.U, nil
	}).Run(ctx, sybil.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := Get("bd")
	got, err := RingSweep(ctx, m, g, 0, sybil.SweepOptions{Grid: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Points, got.Points) || !want.Ratio.Equal(got.Ratio) {
		t.Fatal("BD generic sweep diverges from native sybil sweep")
	}
}

func TestGenericSweepSemantics(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(4, 1, 5, 2, 3))
	m, _ := Get("eqsplit")
	res, err := RingSweep(ctx, m, g, 0, sybil.SweepOptions{Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 || res.Partial {
		t.Fatalf("points %d partial %v, want 9 complete", len(res.Points), res.Partial)
	}
	// Endpoint check: w1 spans [0, W].
	if !res.Points[0].W1.IsZero() || !res.Points[8].W1.Equal(g.Weight(0)) {
		t.Fatalf("grid endpoints %v..%v", res.Points[0].W1, res.Points[8].W1)
	}
	// Earliest-max best rule.
	for i, p := range res.Points {
		if i < res.BestIndex && !p.U.Less(res.BestU) {
			t.Fatalf("point %d ties best %v but BestIndex is %d", i, res.BestU, res.BestIndex)
		}
		if res.BestU.Less(p.U) {
			t.Fatalf("point %d exceeds recorded best", i)
		}
	}
	if res.Honest.Sign() <= 0 || !res.Ratio.Equal(res.BestU.Div(res.Honest)) {
		t.Fatalf("ratio %v inconsistent with best %v / honest %v", res.Ratio, res.BestU, res.Honest)
	}
	// Start/resume: the tail of a full sweep equals a Start-offset sweep.
	tail, err := RingSweep(ctx, m, g, 0, sybil.SweepOptions{Grid: 8, Start: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail.Points, res.Points[5:]) {
		t.Fatal("Start-offset sweep diverges from full sweep tail")
	}
	// Validation errors.
	if _, err := RingSweep(ctx, m, g, 0, sybil.SweepOptions{Grid: 8, Start: 9}); err == nil {
		t.Fatal("out-of-range Start succeeded")
	}
	if _, err := RingSweep(ctx, m, g, 99, sybil.SweepOptions{}); err == nil {
		t.Fatal("out-of-range vertex succeeded")
	}
	tree := graph.RandomTree(rand.New(rand.NewSource(1)), 5, graph.DistUniform)
	if _, err := RingSweep(ctx, m, tree, 0, sybil.SweepOptions{}); err == nil {
		t.Fatal("non-ring sweep succeeded")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	canceled, err := RingSweep(cctx, m, g, 0, sybil.SweepOptions{Grid: 8})
	if err == nil && !canceled.Partial {
		t.Fatal("canceled sweep reported a complete result")
	}
}

// runTournament runs a whole tournament scan.
func runTournament(ctx context.Context, instances []TournamentInstance, opts TournamentOptions) (*TournamentResult, error) {
	ts, err := NewTournament(instances, opts)
	if err != nil {
		return nil, err
	}
	r, err := scan.Run(ctx, ts.Scan, scan.Options[Cell]{})
	if err != nil {
		return nil, err
	}
	if r.Partial {
		return nil, ctx.Err()
	}
	return ts.Result(r.Points), nil
}

func TestTournamentDeterministicAndSummarized(t *testing.T) {
	ctx := context.Background()
	instances := []TournamentInstance{
		{G: graph.Ring(numeric.Ints(4, 1, 5, 2, 3)), V: 0},
		{G: graph.Ring(numeric.Ints(2, 2, 9, 1)), V: 2},
	}
	opts := TournamentOptions{Grid: 8}
	res, err := runTournament(ctx, instances, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Mechanisms, []string{"bd", "eqsplit", "pr"}) {
		t.Fatalf("mechanisms %v", res.Mechanisms)
	}
	if len(res.Cells) != 2 || len(res.Cells[0]) != 3 || len(res.Summary) != 3 {
		t.Fatalf("shape: %d instances × %d cells, %d summaries", len(res.Cells), len(res.Cells[0]), len(res.Summary))
	}
	// Reversed, deduplicated selection yields the same sorted columns.
	opts2 := opts
	opts2.Mechanisms = []string{"pr", "bd", "eqsplit", "bd", ""}
	res2, err := runTournament(ctx, instances, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("tournament output depends on mechanism selection order")
	}
	// BD's empirical ratio stays within the paper's ζ ≤ 2 bound.
	for i := range res.Cells {
		if numeric.FromInt(2).Less(res.Cells[i][0].Ratio) {
			t.Fatalf("instance %d: bd ratio %v exceeds 2", i, res.Cells[i][0].Ratio)
		}
	}
	// Summaries must be reconstructible from the cells alone (the durable
	// job path) and exact.
	ts, err := NewTournament(instances, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for _, row := range res.Cells {
		cells = append(cells, row...)
	}
	resum := ts.Result(cells)
	if !reflect.DeepEqual(res, resum) {
		t.Fatal("summaries rebuilt from the cells diverge from the tournament result")
	}
	s := res.Summary[0]
	if s.Instances != 2 || s.MeanRatio.Less(numeric.One) {
		t.Fatalf("bd summary %+v", s)
	}
	// Error paths.
	if _, err := runTournament(ctx, nil, opts); err == nil {
		t.Fatal("empty tournament succeeded")
	}
	bad := opts
	bad.Mechanisms = []string{"nope"}
	if _, err := runTournament(ctx, instances, bad); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := runTournament(cctx, instances, opts); err == nil {
		t.Fatal("canceled tournament succeeded")
	}
}

func TestEvaluateCellMetrics(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(1, 1, 1, 1))
	m, _ := Get("eqsplit")
	cell, err := EvaluateCell(ctx, m, g, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform ring under equal split: everyone gets their weight back.
	if !cell.Efficiency.Equal(numeric.FromInt(4)) || !cell.Fairness.Equal(numeric.One) {
		t.Fatalf("cell %+v", cell)
	}
	if !cell.Honest.Equal(numeric.One) {
		t.Fatalf("honest %v, want 1", cell.Honest)
	}
}
