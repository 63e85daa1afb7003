// Package graph provides the undirected, vertex-weighted graphs on which the
// resource sharing model is defined (Section II of the paper).
//
// Vertices are dense integers 0..N-1. Each vertex v carries a resource
// amount w_v ≥ 0. Edges are undirected and simple (no self-loops, no
// multi-edges). The package also provides the neighborhood operator Γ(S)
// used by the bottleneck decomposition and the vertex-splitting transform
// that models a Sybil attack.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/numeric"
)

// Graph is an undirected vertex-weighted graph. The zero value is an empty
// graph; use New to create one with vertices.
type Graph struct {
	adj    [][]int       // sorted adjacency lists
	w      []numeric.Rat // vertex weights
	labels []string      // optional display names; may be nil
	edges  int
}

// New returns a graph with n isolated vertices of weight zero.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		adj: make([][]int, n),
		w:   make([]numeric.Rat, n),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// check panics if v is out of range.
func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0, %d)", v, len(g.adj)))
	}
}

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate edges
// are rejected with an error.
func (g *Graph) AddEdge(u, v int) error {
	g.check(u)
	g.check(v)
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d, %d)", u, v)
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for literals in tests and
// generators.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	i := sort.SearchInts(g.adj[u], v)
	return i < len(g.adj[u]) && g.adj[u][i] == v
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// ReverseIndex returns rev with rev[v][j] the position of v in the
// adjacency list of its j-th neighbor u = Neighbors(v)[j], so what u sends
// v is found in u's row without a search. Walking u upward meets the
// neighbors of each v in their sorted order, so one pass fills every row.
func (g *Graph) ReverseIndex() [][]int {
	rev := make([][]int, len(g.adj))
	flat := make([]int, 2*g.edges)
	for v, nb := range g.adj {
		rev[v], flat = flat[:0:len(nb)], flat[len(nb):]
	}
	for _, nb := range g.adj {
		for k, v := range nb {
			rev[v] = append(rev[v], k)
		}
	}
	return rev
}

// SetWeight assigns w_v. Negative weights are rejected.
func (g *Graph) SetWeight(v int, w numeric.Rat) error {
	g.check(v)
	if w.Sign() < 0 {
		return fmt.Errorf("graph: negative weight %v for vertex %d", w, v)
	}
	g.w[v] = w
	return nil
}

// MustSetWeight is SetWeight that panics on error.
func (g *Graph) MustSetWeight(v int, w numeric.Rat) {
	if err := g.SetWeight(v, w); err != nil {
		panic(err)
	}
}

// SetWeights assigns all vertex weights at once.
func (g *Graph) SetWeights(ws []numeric.Rat) error {
	if len(ws) != g.N() {
		return fmt.Errorf("graph: SetWeights got %d weights for %d vertices", len(ws), g.N())
	}
	for v, w := range ws {
		if err := g.SetWeight(v, w); err != nil {
			return err
		}
	}
	return nil
}

// Weight returns w_v.
func (g *Graph) Weight(v int) numeric.Rat {
	g.check(v)
	return g.w[v]
}

// Weights returns a copy of the weight vector.
func (g *Graph) Weights() []numeric.Rat { return numeric.Clone(g.w) }

// SetLabel attaches a display name to v (used by DOT export and tools).
func (g *Graph) SetLabel(v int, label string) {
	g.check(v)
	if g.labels == nil {
		g.labels = make([]string, g.N())
	}
	g.labels[v] = label
}

// Label returns the display name of v, defaulting to "v<index>".
func (g *Graph) Label(v int) string {
	g.check(v)
	if g.labels != nil && g.labels[v] != "" {
		return g.labels[v]
	}
	return fmt.Sprintf("v%d", v)
}

// TotalWeight returns w(V).
func (g *Graph) TotalWeight() numeric.Rat { return numeric.Sum(g.w) }

// WeightOf returns w(S) = Σ_{v∈S} w_v.
func (g *Graph) WeightOf(S []int) numeric.Rat {
	for _, v := range S {
		g.check(v)
	}
	return numeric.SumIndexed(g.w, S)
}

// NeighborhoodSet returns Γ(S) = ∪_{v∈S} Γ(v) as a sorted slice. Note that
// Γ(S) may intersect S (the "inclusive" neighborhood of the paper).
func (g *Graph) NeighborhoodSet(S []int) []int {
	in := make([]bool, len(g.adj))
	count := 0
	for _, v := range S {
		g.check(v)
		for _, u := range g.adj[v] {
			if !in[u] {
				in[u] = true
				count++
			}
		}
	}
	out := make([]int, 0, count)
	for u, ok := range in {
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// IsIndependent reports whether S contains no internal edge.
func (g *Graph) IsIndependent(S []int) bool {
	in := make(map[int]bool, len(S))
	for _, v := range S {
		g.check(v)
		in[v] = true
	}
	for _, v := range S {
		for _, u := range g.adj[v] {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	for v := range g.adj {
		c.adj[v] = append([]int(nil), g.adj[v]...)
	}
	copy(c.w, g.w)
	if g.labels != nil {
		c.labels = append([]string(nil), g.labels...)
	}
	c.edges = g.edges
	return c
}

// InducedSubgraph returns the subgraph induced by keep (distinct vertex
// indices, in any order) together with the ascending mapping orig[i] =
// original index of new vertex i.
func (g *Graph) InducedSubgraph(keep []int) (sub *Graph, orig []int) {
	orig = append([]int(nil), keep...)
	sort.Ints(orig)
	for i, v := range orig {
		g.check(v)
		if i > 0 && orig[i-1] == v {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", v))
		}
	}
	sub = New(len(orig))
	if len(orig) == 0 {
		return sub, orig
	}
	// idx[u-lo] is 1 + the new index of u, or 0 when u is not kept. It
	// increases along orig, so every new neighbor list comes out sorted; the
	// lists share one backing array, each capped at its own end.
	lo := orig[0]
	idx := make([]int, orig[len(orig)-1]-lo+1)
	half := 0
	for i, v := range orig {
		idx[v-lo] = i + 1
		half += len(g.adj[v])
	}
	buf := make([]int, 0, half)
	for i, v := range orig {
		sub.w[i] = g.w[v]
		if g.labels != nil && g.labels[v] != "" {
			sub.SetLabel(i, g.labels[v])
		}
		start := len(buf)
		for _, u := range g.adj[v] {
			if j := u - lo; j >= 0 && j < len(idx) && idx[j] > 0 {
				buf = append(buf, idx[j]-1)
			}
		}
		if len(buf) > start {
			sub.adj[i] = buf[start:len(buf):len(buf)]
		}
	}
	sub.edges = len(buf) / 2
	return sub, orig
}

// Components returns the connected components as sorted vertex slices,
// ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected (the empty graph is connected).
func (g *Graph) IsConnected() bool {
	return g.N() == 0 || len(g.Components()) == 1
}

// IsRing reports whether g is a single cycle covering all vertices
// (n ≥ 3 and every vertex has degree 2 and the graph is connected).
func (g *Graph) IsRing() bool {
	if g.N() < 3 {
		return false
	}
	for v := range g.adj {
		if len(g.adj[v]) != 2 {
			return false
		}
	}
	return g.IsConnected()
}

// IsPath reports whether g is a simple path covering all vertices.
func (g *Graph) IsPath() bool {
	if g.N() == 0 {
		return false
	}
	if g.N() == 1 {
		return true
	}
	deg1 := 0
	for v := range g.adj {
		switch len(g.adj[v]) {
		case 1:
			deg1++
		case 2:
		default:
			return false
		}
	}
	return deg1 == 2 && g.IsConnected()
}

// PathOrder returns the vertices of a path graph in path order (starting
// from the lower-indexed endpoint). It returns an error if g is not a path.
func (g *Graph) PathOrder() ([]int, error) {
	if !g.IsPath() {
		return nil, fmt.Errorf("graph: not a path")
	}
	if g.N() == 1 {
		return []int{0}, nil
	}
	start := -1
	for v := range g.adj {
		if len(g.adj[v]) == 1 {
			start = v
			break
		}
	}
	order := make([]int, 0, g.N())
	prev, cur := -1, start
	for {
		order = append(order, cur)
		next := -1
		for _, u := range g.adj[cur] {
			if u != prev {
				next = u
				break
			}
		}
		if next == -1 {
			break
		}
		prev, cur = cur, next
	}
	return order, nil
}

// RingOrder returns the vertices of a ring graph in cyclic order starting at
// start, moving toward its lower-indexed neighbor. It returns an error if g
// is not a ring.
func (g *Graph) RingOrder(start int) ([]int, error) {
	if !g.IsRing() {
		return nil, fmt.Errorf("graph: not a ring")
	}
	g.check(start)
	order := make([]int, 0, g.N())
	prev, cur := -1, start
	for len(order) < g.N() {
		order = append(order, cur)
		next := -1
		for _, u := range g.adj[cur] {
			if u != prev {
				next = u
				break
			}
		}
		prev, cur = cur, next
	}
	return order, nil
}

// Validate checks internal invariants (sorted adjacency, symmetry, weight
// non-negativity) and returns an error describing the first violation.
func (g *Graph) Validate() error {
	count := 0
	for v := range g.adj {
		if !sort.IntsAreSorted(g.adj[v]) {
			return fmt.Errorf("graph: adjacency of %d not sorted", v)
		}
		for i, u := range g.adj[v] {
			if i > 0 && g.adj[v][i-1] == u {
				return fmt.Errorf("graph: duplicate neighbor %d of %d", u, v)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if u < 0 || u >= g.N() {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: asymmetric edge (%d, %d)", v, u)
			}
			count++
		}
		if g.w[v].Sign() < 0 {
			return fmt.Errorf("graph: negative weight at %d", v)
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency (%d half-edges)", g.edges, count)
	}
	return nil
}
