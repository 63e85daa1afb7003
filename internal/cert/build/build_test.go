package build_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

func rs(ns ...int64) []numeric.Rat {
	out := make([]numeric.Rat, len(ns))
	for i, n := range ns {
		out[i] = numeric.FromInt(n)
	}
	return out
}

// rings used across the round-trip tests: uniform, the paper's running
// example shapes, zero-weight clusters, and a near-tight frontier instance.
func testRings() []*graph.Graph {
	return []*graph.Graph{
		graph.Ring(rs(1, 1, 1)),
		graph.Ring(rs(1, 2, 3, 4)),
		graph.Ring(rs(3, 1, 2, 1, 5)),
		graph.Ring(rs(1, 0, 2, 0)),
		graph.Ring(rs(0, 0, 0)),
		graph.Ring(rs(1, 100, 1, 1, 100, 1)),
		graph.Ring([]numeric.Rat{numeric.New(1, 3), numeric.New(2, 7), numeric.FromInt(4), numeric.New(5, 2)}),
	}
}

func TestDecompositionCertRoundTrip(t *testing.T) {
	graphs := testRings()
	graphs = append(graphs,
		graph.Path(rs(1, 2, 3)),
		graph.Star(rs(5, 1, 1, 1)),
		graph.Complete(rs(1, 2, 3, 4)),
	)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		graphs = append(graphs, graph.RandomConnected(rng, 3+rng.Intn(6), 0.5, graph.DistUniform))
	}
	for gi, g := range graphs {
		dec, err := bottleneck.Decompose(g)
		if err != nil {
			t.Fatalf("graph %d: decompose: %v", gi, err)
		}
		c, err := build.Decomposition(context.Background(), g, dec)
		if err != nil {
			t.Fatalf("graph %d: build: %v", gi, err)
		}
		if err := cert.Check(c); err != nil {
			t.Fatalf("graph %d: check: %v", gi, err)
		}
		assertJSONStable(t, c, func() cert.Checkable { return new(cert.DecompositionCert) })
	}
}

func TestRatioCertRoundTrip(t *testing.T) {
	ctx := context.Background()
	for gi, g := range testRings() {
		for v := 0; v < g.N(); v++ {
			in, err := core.NewInstanceCtx(ctx, g, v)
			if err != nil {
				// Some zero-weight rings are rejected by the honest-side
				// allocation itself (a solver precondition, not a cert
				// concern); nothing to certify there.
				t.Logf("ring %d v=%d: not analyzable: %v", gi, v, err)
				continue
			}
			opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: 12})
			if err != nil {
				t.Fatalf("ring %d v=%d: optimize: %v", gi, v, err)
			}
			rc, err := build.Ratio(ctx, in, opt)
			if err != nil {
				t.Fatalf("ring %d v=%d: build: %v", gi, v, err)
			}
			if err := cert.Check(rc); err != nil {
				t.Fatalf("ring %d v=%d: check: %v", gi, v, err)
			}
			if rc.Ratio != opt.Ratio.String() {
				t.Fatalf("ring %d v=%d: cert ratio %s, solver %v", gi, v, rc.Ratio, opt.Ratio)
			}
			assertJSONStable(t, rc, func() cert.Checkable { return new(cert.RatioCert) })
		}
	}
}

func TestSweepCertRoundTrip(t *testing.T) {
	ctx := context.Background()
	for gi, g := range testRings() {
		in, err := core.NewInstanceCtx(ctx, g, 0)
		if err != nil {
			t.Logf("ring %d: not analyzable: %v", gi, err)
			continue
		}
		res, err := sybil.RingSweepCtx(ctx, in.G, in.V, sybil.SweepOptions{Grid: 8})
		if err != nil {
			t.Fatalf("ring %d: sweep: %v", gi, err)
		}
		sc, err := build.Sweep(ctx, in, res, 8)
		if err != nil {
			t.Fatalf("ring %d: build: %v", gi, err)
		}
		if err := cert.Check(sc); err != nil {
			t.Fatalf("ring %d: check: %v", gi, err)
		}
		assertJSONStable(t, sc, func() cert.Checkable { return new(cert.SweepCert) })
	}
}

// TestSweepCertPartial certifies a resumed tail: Start > 0.
func TestSweepCertPartial(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(rs(3, 1, 2, 1, 5))
	in, err := core.NewInstanceCtx(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sybil.RingSweepCtx(ctx, in.G, in.V, sybil.SweepOptions{Grid: 8, Start: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := build.Sweep(ctx, in, res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Start != 3 || len(sc.Points) != 6 {
		t.Fatalf("start=%d points=%d, want 3 and 6", sc.Start, len(sc.Points))
	}
	if err := cert.Check(sc); err != nil {
		t.Fatal(err)
	}
}

// TestPieceFormulasPresent asserts the exact closed forms actually
// materialize (the model is not silently disabled on ordinary instances).
func TestPieceFormulasPresent(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(rs(3, 1, 2, 1, 5))
	in, err := core.NewInstanceCtx(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: 16})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := build.Ratio(ctx, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, p := range rc.Pieces {
		if p.FormulaExact {
			exact++
		}
	}
	if exact == 0 {
		t.Fatalf("no piece carries an exact closed form (pieces: %d)", len(rc.Pieces))
	}
	if err := cert.Check(rc); err != nil {
		t.Fatal(err)
	}
}

// assertJSONStable checks encode → decode → Check → re-encode is
// bit-identical: certificates are canonical bytes, so identity is textual.
func assertJSONStable(t *testing.T, c cert.Checkable, fresh func() cert.Checkable) {
	t.Helper()
	b1, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	d := fresh()
	if err := json.Unmarshal(b1, d); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := cert.Check(d); err != nil {
		t.Fatalf("decoded certificate fails check: %v", err)
	}
	b2, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round trip not bit-identical:\n%s\n%s", b1, b2)
	}
}
