package mechanism

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

// pathReference evaluates the k-identity split P_v(w1, wk) of ring g the
// long way: build the explicit split path (v¹, the rest of the ring in ring
// order, v^k) and sum the two end identities' utilities under m's Allocate.
func pathReference(t *testing.T, m Mechanism, g *graph.Graph, v int, w1, wk numeric.Rat) numeric.Rat {
	t.Helper()
	ring, err := g.RingOrder(v)
	if err != nil {
		t.Fatal(err)
	}
	ws := []numeric.Rat{w1}
	for _, u := range ring[1:] {
		ws = append(ws, g.Weight(u))
	}
	p := graph.Path(append(ws, wk))
	a, err := m.Allocate(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return a.Utility(0).Add(a.Utility(p.N() - 1))
}

// TestSplitterMatchesPathReference checks the one split evaluator against
// an independent reference for every mechanism: BD's incremental
// core.Instance engine and the generic k ≥ 3 path must both equal a fresh
// Allocate of the explicit split path, at withheld and full splits alike.
func TestSplitterMatchesPathReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		n := rng.Intn(3) + 4
		g := graph.RandomRing(rng, n, graph.DistUniform)
		v := rng.Intn(n)
		W := g.Weight(v)
		for _, name := range Names() {
			m, _ := Get(name)
			sp, err := NewSplitter(ctx, m, g, v, 3, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, c := range [][2]int64{{0, 4}, {1, 2}, {2, 2}, {3, 0}, {1, 3}} {
				w1, wk := W.MulInt(c[0]).DivInt(4), W.MulInt(c[1]).DivInt(4)
				got, err := sp.Eval(ctx, w1, wk)
				if err != nil {
					t.Fatalf("%s (%v, %v): %v", name, w1, wk, err)
				}
				if want := pathReference(t, m, g, v, w1, wk); !got.Equal(want) {
					t.Fatalf("trial %d %s split %v: %v, reference %v", trial, name, c, got, want)
				}
			}
			if _, bd := m.(Decomposer); bd != (sp.Stats().Solver.Evals > 0) {
				t.Fatalf("%s: incremental engine stats %+v", name, sp.Stats())
			}
		}
	}
}

// TestSplitterValidation pins the evaluator's input checks and that a
// caller's instance source is used — and its failure surfaced — on the BD
// path only.
func TestSplitterValidation(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(3, 1, 2, 1, 5))
	bd, _ := Get("bd")
	eq, _ := Get("eqsplit")
	if _, err := NewSplitter(ctx, bd, graph.Path(numeric.Ints(1, 2, 3)), 0, 2, nil); err == nil {
		t.Fatal("path graph accepted")
	}
	if _, err := NewSplitter(ctx, eq, g, 5, 2, nil); err == nil {
		t.Fatal("out-of-range agent accepted")
	}
	boom := errors.New("boom")
	failing := func(context.Context) (*core.Instance, error) { return nil, boom }
	if _, err := NewSplitter(ctx, bd, g, 0, 2, failing); !errors.Is(err, boom) {
		t.Fatalf("bd ignored the instance source: %v", err)
	}
	if _, err := NewSplitter(ctx, eq, g, 0, 2, failing); err != nil {
		t.Fatalf("generic path consulted the instance source: %v", err)
	}
	in, err := core.NewInstanceCtx(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSplitter(ctx, bd, g, 0, 2, func(context.Context) (*core.Instance, error) { return in, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Eval(ctx, sp.W, sp.W); err == nil {
		t.Fatal("split outside the simplex accepted")
	}
	if !sp.Honest.Equal(in.HonestU) {
		t.Fatalf("honest %v, instance %v", sp.Honest, in.HonestU)
	}
}

// TestBDCapabilities covers the BD backend's optional surfaces: parallel
// decomposition agrees with the serial one, and the exact ring optimizer
// never falls below the grid sweep's empirical ratio.
func TestBDCapabilities(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(4, 1, 5, 2, 3))
	d, err := BD{}.DecomposeParallel(ctx, g, bottleneck.EngineAuto, 2)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BD{}.Decompose(ctx, g, bottleneck.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if d.StructureSignature() != serial.StructureSignature() {
		t.Fatal("parallel decomposition differs")
	}
	opt, err := BD{}.OptimizeRing(ctx, g, 0, core.OptimizeOptions{Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RingSweep(ctx, BD{}, g, 0, sybil.SweepOptions{Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Ratio.Less(sw.Ratio) {
		t.Fatalf("exact ratio %v below the grid's %v", opt.Ratio, sw.Ratio)
	}
}
