package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

func TestGeneratorsBasicShapes(t *testing.T) {
	ring := Ring(numeric.Ints(1, 2, 3, 4))
	if !ring.IsRing() || ring.M() != 4 {
		t.Error("Ring wrong")
	}
	path := Path(numeric.Ints(1, 2, 3))
	if !path.IsPath() || path.M() != 2 {
		t.Error("Path wrong")
	}
	comp := Complete(numeric.Ints(1, 1, 1, 1))
	if comp.M() != 6 {
		t.Error("Complete wrong")
	}
	star := Star(numeric.Ints(1, 2, 3))
	if star.Degree(0) != 2 || star.M() != 2 {
		t.Error("Star wrong")
	}
	kab := CompleteBipartite(2, 3, numeric.Ints(1, 1, 1, 1, 1))
	if kab.M() != 6 || kab.HasEdge(0, 1) {
		t.Error("CompleteBipartite wrong")
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Ring(numeric.Ints(1, 2)) },
		func() { Path(nil) },
		func() { Complete(nil) },
		func() { Star(numeric.Ints(1)) },
		func() { CompleteBipartite(0, 2, numeric.Ints(1, 1)) },
		func() { Theta(0, 0, 1, numeric.Ints(1, 1, 1)) },
		func() { Theta(1, 1, 1, numeric.Ints(1, 1)) },
		func() { Theta(-1, 1, 1, nil) },
		func() { RandomTree(rand.New(rand.NewSource(1)), 0, DistUnit) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTheta(t *testing.T) {
	// Paths of internal lengths 1, 2, 3 → 2 + 6 = 8 vertices,
	// edges: (1+1) + (2+1) + (3+1) = 9.
	ws := numeric.Ints(10, 20, 1, 2, 3, 4, 5, 6)
	g := Theta(1, 2, 3, ws)
	if g.N() != 8 || g.M() != 9 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("theta not connected")
	}
	if g.Degree(0) != 3 || g.Degree(1) != 3 {
		t.Fatalf("terminal degrees %d, %d", g.Degree(0), g.Degree(1))
	}
	for v := 2; v < 8; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("internal vertex %d has degree %d", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// One empty path is allowed: direct edge between terminals.
	g2 := Theta(0, 1, 1, numeric.Ints(1, 1, 1, 1))
	if !g2.HasEdge(0, 1) || g2.M() != 5 {
		t.Fatalf("theta with direct edge wrong: M=%d", g2.M())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(15) + 1
		g := RandomTree(rng, n, WeightDist(rng.Intn(4)))
		if g.M() != n-1 {
			t.Fatalf("tree with %d vertices has %d edges", n, g.M())
		}
		if !g.IsConnected() {
			t.Fatal("tree not connected")
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWeightDistStrings(t *testing.T) {
	for d, want := range map[WeightDist]string{
		DistUniform:    "uniform[1,100]",
		DistSkewed:     "skewed",
		DistPowers:     "powers-of-two",
		DistUnit:       "unit",
		WeightDist(99): "WeightDist(99)",
	} {
		if d.String() != want {
			t.Errorf("%d: %q != %q", int(d), d.String(), want)
		}
	}
}

func TestRandomWeightsRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, d := range []WeightDist{DistUniform, DistSkewed, DistPowers, DistUnit} {
		ws := RandomWeights(rng, 200, d)
		for _, w := range ws {
			if w.Sign() <= 0 {
				t.Fatalf("%v produced non-positive weight %v", d, w)
			}
		}
	}
	if DistUnit.String() == "" {
		t.Fatal("unreachable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown distribution did not panic")
		}
	}()
	RandomWeights(rng, 1, WeightDist(42))
}

func TestFig1GraphShape(t *testing.T) {
	g := Fig1Graph()
	if g.N() != 6 || g.M() != 6 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Label(0) != "v1" || g.Label(5) != "v6" {
		t.Error("labels wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarbellShape(t *testing.T) {
	ws := make([]numeric.Rat, 9)
	for i := range ws {
		ws[i] = numeric.One
	}
	g := Barbell(3, 3, ws)
	if g.N() != 9 {
		t.Fatalf("N=%d", g.N())
	}
	// Two K_3 (3 edges each) plus a 4-edge bridge path 2-3-4-5-6.
	if g.M() != 3+3+4 {
		t.Fatalf("M=%d", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("barbell disconnected")
	}
	if g.Degree(3) != 2 || g.Degree(0) != 2 || g.Degree(2) != 3 {
		t.Fatalf("degrees: %d %d %d", g.Degree(3), g.Degree(0), g.Degree(2))
	}
	// bridge = 0: the cliques share one direct edge.
	g0 := Barbell(2, 0, ws[:4])
	if g0.M() != 1+1+1 || !g0.IsConnected() {
		t.Fatalf("bridge-0 barbell: M=%d", g0.M())
	}
}

func TestRandomBarbellAndSmallWorldConnectedDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{5, 8, 13} {
			b := RandomBarbell(rand.New(rand.NewSource(seed)), n, DistUniform)
			if b.N() != n || !b.IsConnected() {
				t.Fatalf("barbell seed=%d n=%d: N=%d connected=%v", seed, n, b.N(), b.IsConnected())
			}
			s := SmallWorld(rand.New(rand.NewSource(seed)), n, 0.2, DistUniform)
			if s.N() != n || !s.IsConnected() {
				t.Fatalf("smallworld seed=%d n=%d: N=%d connected=%v", seed, n, s.N(), s.IsConnected())
			}
			s2 := SmallWorld(rand.New(rand.NewSource(seed)), n, 0.2, DistUniform)
			if fmt.Sprint(s.Edges()) != fmt.Sprint(s2.Edges()) {
				t.Fatalf("smallworld not deterministic for seed %d", seed)
			}
		}
	}
}

// TestParseWeightDist covers every distribution name, "" (uniform, as on
// the wire) and an unknown name.
func TestParseWeightDist(t *testing.T) {
	for name, want := range map[string]WeightDist{"": DistUniform, "uniform": DistUniform, "skewed": DistSkewed, "powers": DistPowers, "unit": DistUnit} {
		if got, err := ParseWeightDist(name); err != nil || got != want {
			t.Errorf("ParseWeightDist(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseWeightDist("normal")
	if want := `unknown weight distribution "normal" (want uniform, skewed, powers, or unit)`; err == nil || err.Error() != want {
		t.Errorf("ParseWeightDist(normal) error = %v, want %q", err, want)
	}
}
