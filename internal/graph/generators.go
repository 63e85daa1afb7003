package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/numeric"
)

// Generators for the instance families used across tests, examples and the
// experiment harness. All generators that take weights panic on invalid
// input so that experiment code stays linear.

// Ring returns the cycle v0 - v1 - ... - v_{n-1} - v0 with the given weights
// (n = len(ws) ≥ 3).
func Ring(ws []numeric.Rat) *Graph {
	n := len(ws)
	if n < 3 {
		panic(fmt.Sprintf("graph: Ring needs at least 3 vertices, got %d", n))
	}
	g := New(n)
	mustSetAll(g, ws)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	return g
}

// Path returns the path v0 - v1 - ... - v_{n-1} with the given weights
// (n ≥ 1).
func Path(ws []numeric.Rat) *Graph {
	n := len(ws)
	if n < 1 {
		panic("graph: Path needs at least 1 vertex")
	}
	g := New(n)
	mustSetAll(g, ws)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Complete returns the complete graph K_n with the given weights (n ≥ 1).
func Complete(ws []numeric.Rat) *Graph {
	n := len(ws)
	if n < 1 {
		panic("graph: Complete needs at least 1 vertex")
	}
	g := New(n)
	mustSetAll(g, ws)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

// Star returns a star with center 0 and leaves 1..n-1.
func Star(ws []numeric.Rat) *Graph {
	n := len(ws)
	if n < 2 {
		panic("graph: Star needs at least 2 vertices")
	}
	g := New(n)
	mustSetAll(g, ws)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int, ws []numeric.Rat) *Graph {
	if a < 1 || b < 1 || len(ws) != a+b {
		panic("graph: CompleteBipartite invalid sizes")
	}
	g := New(a + b)
	mustSetAll(g, ws)
	for i := 0; i < a; i++ {
		for j := a; j < a+b; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

func mustSetAll(g *Graph, ws []numeric.Rat) {
	if err := g.SetWeights(ws); err != nil {
		panic(err)
	}
}

// WeightDist names a distribution for random integer weights; used by the
// experiment sweeps so instance families are describable in tables.
type WeightDist int

const (
	// DistUniform draws weights uniformly from {1, ..., 100}.
	DistUniform WeightDist = iota
	// DistSkewed draws 1 with probability 0.8 and a value in
	// {50, ..., 150} otherwise, producing strong weight asymmetry.
	DistSkewed
	// DistPowers draws from {1, 2, 4, ..., 2^10}, exercising wide
	// dynamic range with exact doubling structure.
	DistPowers
	// DistUnit assigns weight 1 to every vertex (the symmetric case in
	// which α = 1 on rings).
	DistUnit
)

// String returns the distribution name for experiment tables.
func (d WeightDist) String() string {
	switch d {
	case DistUniform:
		return "uniform[1,100]"
	case DistSkewed:
		return "skewed"
	case DistPowers:
		return "powers-of-two"
	case DistUnit:
		return "unit"
	}
	return fmt.Sprintf("WeightDist(%d)", int(d))
}

// ParseWeightDist maps a distribution name ("" = uniform) to the
// distribution. It is the one parser of the name for the CLI and the wire;
// String stays the experiment tables' label.
func ParseWeightDist(name string) (WeightDist, error) {
	switch name {
	case "", "uniform":
		return DistUniform, nil
	case "skewed":
		return DistSkewed, nil
	case "powers":
		return DistPowers, nil
	case "unit":
		return DistUnit, nil
	}
	return 0, fmt.Errorf("unknown weight distribution %q (want uniform, skewed, powers, or unit)", name)
}

// RandomWeights draws n weights from distribution d using rng.
func RandomWeights(rng *rand.Rand, n int, d WeightDist) []numeric.Rat {
	ws := make([]numeric.Rat, n)
	for i := range ws {
		switch d {
		case DistUniform:
			ws[i] = numeric.FromInt(int64(rng.Intn(100)) + 1)
		case DistSkewed:
			if rng.Float64() < 0.8 {
				ws[i] = numeric.One
			} else {
				ws[i] = numeric.FromInt(int64(rng.Intn(101)) + 50)
			}
		case DistPowers:
			ws[i] = numeric.FromInt(int64(1) << uint(rng.Intn(11)))
		case DistUnit:
			ws[i] = numeric.One
		default:
			panic(fmt.Sprintf("graph: unknown weight distribution %d", int(d)))
		}
	}
	return ws
}

// RandomRing returns a ring of n vertices with random weights from d.
func RandomRing(rng *rand.Rand, n int, d WeightDist) *Graph {
	return Ring(RandomWeights(rng, n, d))
}

// Theta returns a theta graph: two terminals joined by three internally
// disjoint paths with len1, len2, len3 internal vertices. Weights run
// terminal 0, terminal 1, then the paths' internal vertices in order. Theta
// graphs are the simplest networks with two cycles through a common vertex —
// a natural probe for the paper's general-network conjecture beyond rings.
func Theta(len1, len2, len3 int, ws []numeric.Rat) *Graph {
	if len1 < 0 || len2 < 0 || len3 < 0 {
		panic("graph: negative theta path length")
	}
	n := 2 + len1 + len2 + len3
	if len(ws) != n {
		panic(fmt.Sprintf("graph: Theta needs %d weights, got %d", n, len(ws)))
	}
	// Multi-edges are forbidden, so at most one path may be internally empty.
	empty := 0
	for _, l := range []int{len1, len2, len3} {
		if l == 0 {
			empty++
		}
	}
	if empty > 1 {
		panic("graph: Theta with two empty paths would need a multi-edge")
	}
	g := New(n)
	mustSetAll(g, ws)
	next := 2
	for _, l := range []int{len1, len2, len3} {
		prev := 0
		for i := 0; i < l; i++ {
			g.MustAddEdge(prev, next)
			prev = next
			next++
		}
		g.MustAddEdge(prev, 1)
	}
	return g
}

// RandomTree returns a uniformly random labeled tree on n vertices (via a
// random Prüfer-like attachment: vertex i attaches to a uniform earlier
// vertex), with weights drawn from d.
func RandomTree(rng *rand.Rand, n int, d WeightDist) *Graph {
	if n < 1 {
		panic("graph: RandomTree needs n >= 1")
	}
	g := New(n)
	mustSetAll(g, RandomWeights(rng, n, d))
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v))
	}
	return g
}

// RandomConnected returns a connected random graph: a uniform spanning-ish
// backbone (random permutation path) plus each extra edge with probability p.
// Weights are drawn from d.
func RandomConnected(rng *rand.Rand, n int, p float64, d WeightDist) *Graph {
	if n < 1 {
		panic("graph: RandomConnected needs n >= 1")
	}
	g := New(n)
	mustSetAll(g, RandomWeights(rng, n, d))
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(perm[i], perm[i+1])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// Barbell returns a barbell graph: two cliques K_a joined by a bridge path
// of bridge internal vertices (bridge ≥ 0; with bridge = 0 the two cliques
// share one direct edge). Vertices run left clique 0..a-1, bridge a..a+
// bridge-1, right clique a+bridge..2a+bridge-1; the bridge attaches to
// vertex a-1 of the left clique and vertex a+bridge of the right one.
// Barbells concentrate weight behind two cut vertices — the sharpest
// bottleneck structure of the topology-scan families.
func Barbell(a, bridge int, ws []numeric.Rat) *Graph {
	if a < 2 {
		panic(fmt.Sprintf("graph: Barbell needs cliques of at least 2 vertices, got %d", a))
	}
	if bridge < 0 {
		panic("graph: negative barbell bridge length")
	}
	n := 2*a + bridge
	if len(ws) != n {
		panic(fmt.Sprintf("graph: Barbell needs %d weights, got %d", n, len(ws)))
	}
	g := New(n)
	mustSetAll(g, ws)
	right := a + bridge
	for i := 0; i < a; i++ {
		for j := i + 1; j < a; j++ {
			g.MustAddEdge(i, j)
			g.MustAddEdge(right+i, right+j)
		}
	}
	prev := a - 1
	for b := 0; b < bridge; b++ {
		g.MustAddEdge(prev, a+b)
		prev = a + b
	}
	g.MustAddEdge(prev, right)
	return g
}

// RandomBarbell returns a barbell on n ≥ 5 vertices with clique size
// max(2, n/3) and the remainder as the bridge, weights drawn from d.
func RandomBarbell(rng *rand.Rand, n int, d WeightDist) *Graph {
	if n < 5 {
		panic(fmt.Sprintf("graph: RandomBarbell needs n >= 5, got %d", n))
	}
	a := n / 3
	if a < 2 {
		a = 2
	}
	return Barbell(a, n-2*a, RandomWeights(rng, n, d))
}

// SmallWorld returns a Watts–Strogatz-style small-world graph on n ≥ 5
// vertices: the base ring 0-1-...-n-1-0 plus the distance-2 chords
// (i, i+2), each chord independently rewired with probability p to a
// uniformly random non-adjacent endpoint. The base ring is never rewired,
// so the graph stays connected for every draw; determinism comes entirely
// from rng. Weights are drawn from d.
func SmallWorld(rng *rand.Rand, n int, p float64, d WeightDist) *Graph {
	if n < 5 {
		panic(fmt.Sprintf("graph: SmallWorld needs n >= 5, got %d", n))
	}
	g := New(n)
	mustSetAll(g, RandomWeights(rng, n, d))
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		u, v := i, (i+2)%n
		if rng.Float64() < p {
			// Rewire the chord's far endpoint to a uniform vertex that is
			// neither u nor already adjacent to u (keeping the graph simple).
			var candidates []int
			for w := 0; w < n; w++ {
				if w != u && !g.HasEdge(u, w) {
					candidates = append(candidates, w)
				}
			}
			if len(candidates) > 0 {
				v = candidates[rng.Intn(len(candidates))]
			}
		}
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// Fig1Graph returns the 6-vertex example of Fig. 1 in the paper: vertices
// v1..v6 (here 0..5) where the first bottleneck pair is ({v1,v2}, {v3}) with
// α = 1/3 and the second is ({v4,v5,v6}, {v4,v5,v6}) with α = 1.
//
// Construction: v1 and v2 attach only to v3 (so Γ({v1,v2}) = {v3});
// weights w1 = w2 = 3 and w3 = 2 give α({v1,v2}) = 2/6 = 1/3. The triangle
// v4, v5, v6 with unit weights decomposes as B = C with α = 1; v3
// additionally links the two parts so the graph is connected. (The paper's
// figure fixes the pairs and the α values but not the weights; any profile
// realizing them is faithful.)
func Fig1Graph() *Graph {
	g := New(6)
	weights := []numeric.Rat{
		numeric.FromInt(3), numeric.FromInt(3), numeric.FromInt(2),
		numeric.One, numeric.One, numeric.One,
	}
	for v := 0; v < 6; v++ {
		g.MustSetWeight(v, weights[v])
		g.SetLabel(v, fmt.Sprintf("v%d", v+1))
	}
	g.MustAddEdge(0, 2) // v1 - v3
	g.MustAddEdge(1, 2) // v2 - v3
	g.MustAddEdge(2, 3) // v3 - v4
	g.MustAddEdge(3, 4) // v4 - v5
	g.MustAddEdge(4, 5) // v5 - v6
	g.MustAddEdge(3, 5) // v4 - v6
	return g
}
