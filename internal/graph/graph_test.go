package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestNewAndBasicOps(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("New(4): N=%d M=%d", g.N(), g.M())
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 1)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatal("Degree wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	g.MustAddEdge(0, 1)
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestWeights(t *testing.T) {
	g := New(3)
	g.MustSetWeight(0, numeric.New(1, 2))
	g.MustSetWeight(1, numeric.FromInt(3))
	if err := g.SetWeight(2, numeric.FromInt(-1)); err == nil {
		t.Error("negative weight accepted")
	}
	if !g.TotalWeight().Equal(numeric.New(7, 2)) {
		t.Errorf("TotalWeight = %v", g.TotalWeight())
	}
	if !g.WeightOf([]int{0, 1}).Equal(numeric.New(7, 2)) {
		t.Errorf("WeightOf = %v", g.WeightOf([]int{0, 1}))
	}
	if err := g.SetWeights(numeric.Ints(1, 2)); err == nil {
		t.Error("SetWeights with wrong length accepted")
	}
}

func TestNeighborhoodSet(t *testing.T) {
	// Path 0-1-2-3.
	g := Path(numeric.Ints(1, 1, 1, 1))
	if got := g.NeighborhoodSet([]int{0}); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Γ({0}) = %v", got)
	}
	if got := g.NeighborhoodSet([]int{1, 2}); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("Γ({1,2}) = %v (inclusive neighborhood expected)", got)
	}
	if got := g.NeighborhoodSet([]int{0, 3}); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Γ({0,3}) = %v", got)
	}
	if got := g.NeighborhoodSet(nil); len(got) != 0 {
		t.Errorf("Γ(∅) = %v", got)
	}
}

func TestIsIndependent(t *testing.T) {
	g := Ring(numeric.Ints(1, 1, 1, 1, 1))
	if !g.IsIndependent([]int{0, 2}) {
		t.Error("{0,2} should be independent on C5")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Error("{0,1} should not be independent on C5")
	}
	if !g.IsIndependent(nil) {
		t.Error("empty set should be independent")
	}
}

func TestEdgesAndClone(t *testing.T) {
	g := Ring(numeric.Ints(1, 2, 3))
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v", got)
	}
	c := g.Clone()
	c.MustSetWeight(0, numeric.FromInt(99))
	if !g.Weight(0).Equal(numeric.One) {
		t.Error("Clone shares weights")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone Validate: %v", err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Ring(numeric.Ints(1, 2, 3, 4, 5))
	sub, orig := g.InducedSubgraph([]int{3, 0, 4})
	if !reflect.DeepEqual(orig, []int{0, 3, 4}) {
		t.Fatalf("orig = %v", orig)
	}
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	// Edges among {0,3,4} in C5: (3,4) and (4,0).
	if sub.M() != 2 || !sub.HasEdge(1, 2) || !sub.HasEdge(0, 2) || sub.HasEdge(0, 1) {
		t.Fatalf("induced edges wrong: %v", sub.Edges())
	}
	if !sub.Weight(1).Equal(numeric.FromInt(4)) {
		t.Errorf("induced weight = %v", sub.Weight(1))
	}
}

func TestReverseIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gs := []*Graph{New(2), Ring(numeric.Ints(1, 2, 3))}
	for k := 0; k < 20; k++ {
		gs = append(gs, RandomConnected(rng, rng.Intn(9)+1, 0.4, DistUnit))
	}
	for _, g := range gs {
		rev := g.ReverseIndex()
		if len(rev) != g.N() {
			t.Fatalf("%d rows for %d vertices", len(rev), g.N())
		}
		for v := range rev {
			if len(rev[v]) != g.Degree(v) {
				t.Fatalf("row %d has %d entries for degree %d", v, len(rev[v]), g.Degree(v))
			}
			for j, u := range g.Neighbors(v) {
				if got := g.Neighbors(u)[rev[v][j]]; got != v {
					t.Fatalf("rev[%d][%d] = %d points at %d in the list of %d", v, j, rev[v][j], got, u)
				}
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(3, 4)
	comps := g.Components()
	want := [][]int{{0, 1}, {2}, {3, 4}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("Components = %v", comps)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !New(0).IsConnected() {
		t.Error("empty graph should be connected")
	}
}

func TestIsRingIsPath(t *testing.T) {
	ring := Ring(numeric.Ints(1, 1, 1, 1))
	if !ring.IsRing() || ring.IsPath() {
		t.Error("C4 misclassified")
	}
	path := Path(numeric.Ints(1, 1, 1))
	if path.IsRing() || !path.IsPath() {
		t.Error("P3 misclassified")
	}
	single := Path(numeric.Ints(1))
	if !single.IsPath() {
		t.Error("single vertex should be a path")
	}
	// Two disjoint triangles: all degree 2, not connected.
	two := New(6)
	two.MustAddEdge(0, 1)
	two.MustAddEdge(1, 2)
	two.MustAddEdge(2, 0)
	two.MustAddEdge(3, 4)
	two.MustAddEdge(4, 5)
	two.MustAddEdge(5, 3)
	if two.IsRing() {
		t.Error("disjoint triangles reported as ring")
	}
}

func TestPathOrder(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(3, 1)
	order, err := g.PathOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Path is 2-0-3-1; lower-indexed endpoint is 1 or 2 → starts at 1.
	if !reflect.DeepEqual(order, []int{1, 3, 0, 2}) && !reflect.DeepEqual(order, []int{2, 0, 3, 1}) {
		t.Fatalf("PathOrder = %v", order)
	}
	if _, err := Ring(numeric.Ints(1, 1, 1)).PathOrder(); err == nil {
		t.Error("PathOrder on ring should fail")
	}
}

func TestRingOrder(t *testing.T) {
	g := Ring(numeric.Ints(1, 1, 1, 1, 1))
	order, err := g.RingOrder(2)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 2 || len(order) != 5 {
		t.Fatalf("RingOrder = %v", order)
	}
	// Consecutive entries must be adjacent, and it must wrap around.
	for i := range order {
		if !g.HasEdge(order[i], order[(i+1)%len(order)]) {
			t.Fatalf("RingOrder %v not cyclic at %d", order, i)
		}
	}
	if _, err := Path(numeric.Ints(1, 1)).RingOrder(0); err == nil {
		t.Error("RingOrder on path should fail")
	}
}

func TestLabels(t *testing.T) {
	g := New(2)
	if g.Label(1) != "v1" {
		t.Errorf("default label = %q", g.Label(1))
	}
	g.SetLabel(1, "attacker")
	if g.Label(1) != "attacker" {
		t.Errorf("label = %q", g.Label(1))
	}
}

func TestQuickRandomConnectedIsConnectedAndValid(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw)%20 + 1
		p := float64(pRaw) / 255.0
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(rng, n, p, DistUniform)
		return g.IsConnected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNeighborhoodMonotone(t *testing.T) {
	// Γ is monotone: S ⊆ T ⇒ Γ(S) ⊆ Γ(T).
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%15 + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(rng, n, 0.3, DistUnit)
		var S, T []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				T = append(T, v)
				if rng.Intn(2) == 0 {
					S = append(S, v)
				}
			}
		}
		gs := g.NeighborhoodSet(S)
		gt := make(map[int]bool)
		for _, v := range g.NeighborhoodSet(T) {
			gt[v] = true
		}
		for _, v := range gs {
			if !gt[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
