package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/numeric"
)

// inducedRef is the referee of InducedSubgraph: the earlier construction
// through a map index, New and one MustAddEdge per kept edge.
func inducedRef(g *Graph, keep []int) (*Graph, []int) {
	idx := make(map[int]int, len(keep))
	orig := append([]int(nil), keep...)
	sort.Ints(orig)
	for i, v := range orig {
		g.check(v)
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", v))
		}
		idx[v] = i
	}
	sub := New(len(orig))
	for i, v := range orig {
		sub.w[i] = g.w[v]
		if g.labels != nil && g.labels[v] != "" {
			sub.SetLabel(i, g.labels[v])
		}
		for _, u := range g.adj[v] {
			if j, ok := idx[u]; ok && i < j {
				sub.MustAddEdge(i, j)
			}
		}
	}
	return sub, orig
}

// neighborhoodRef is the referee of NeighborhoodSet: a map of the
// neighbors, sorted.
func neighborhoodRef(g *Graph, S []int) []int {
	seen := make(map[int]bool)
	for _, v := range S {
		g.check(v)
		for _, u := range g.adj[v] {
			seen[u] = true
		}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// panicText runs f and returns the text of its panic ("" if none).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// refereeGraph draws a random graph of 0–15 vertices, possibly
// disconnected, with some vertices labelled.
func refereeGraph(rng *rand.Rand) *Graph {
	n := rng.Intn(16)
	g := New(n)
	p := rng.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
		g.MustSetWeight(u, numeric.New(rng.Int63n(50), 1+rng.Int63n(7)))
	}
	if n > 0 && rng.Intn(2) == 0 {
		for k := rng.Intn(n + 1); k > 0; k-- {
			g.SetLabel(rng.Intn(n), fmt.Sprintf("x%d", rng.Intn(100)))
		}
	}
	return g
}

// TestInducedSubgraphMatchesReferee requires InducedSubgraph to build the
// referee's graph field for field (adjacency, edge count, weights, labels)
// on random graphs and on unsorted, empty and full keep sets, and to panic
// with the referee's text on a duplicate or out-of-range vertex.
func TestInducedSubgraphMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 2000; trial++ {
		g := refereeGraph(rng)
		n := g.N()
		var keep []int
		switch trial % 4 {
		case 0: // full
			keep = rng.Perm(n)
		case 1: // empty
			keep = []int{}
		default:
			for _, v := range rng.Perm(n) {
				if rng.Intn(2) == 0 {
					keep = append(keep, v)
				}
			}
		}
		keepCopy := append([]int(nil), keep...)
		sub, orig := g.InducedSubgraph(keep)
		want, wantOrig := inducedRef(g, keep)
		if !reflect.DeepEqual(sub, want) || !reflect.DeepEqual(orig, wantOrig) {
			t.Fatalf("trial %d keep %v: got %+v %v, referee %+v %v", trial, keepCopy, sub, orig, want, wantOrig)
		}
		if !slices.Equal(keep, keepCopy) {
			t.Fatalf("trial %d: keep modified to %v", trial, keep)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The neighbor lists share one array: growing one must not write
		// into the next.
		if sub.N() >= 3 && !sub.HasEdge(0, sub.N()-1) {
			before := append([]int(nil), sub.Neighbors(1)...)
			sub.MustAddEdge(0, sub.N()-1)
			if !reflect.DeepEqual(sub.Neighbors(1), before) || sub.Validate() != nil {
				t.Fatalf("trial %d: AddEdge on vertex 0 changed vertex 1's neighbors", trial)
			}
		}
		if n > 0 {
			v := rng.Intn(n)
			bad := append(append([]int(nil), keepCopy...), v, v)
			if got, ref := panicText(func() { g.InducedSubgraph(bad) }), panicText(func() { inducedRef(g, bad) }); got != ref || got == "" {
				t.Fatalf("trial %d duplicate %v: panic %q, referee %q", trial, bad, got, ref)
			}
		}
		out := append(append([]int(nil), keepCopy...), n)
		if got, ref := panicText(func() { g.InducedSubgraph(out) }), panicText(func() { inducedRef(g, out) }); got != ref || got == "" {
			t.Fatalf("trial %d out of range: panic %q, referee %q", trial, got, ref)
		}
	}
}

// TestNeighborhoodSetMatchesReferee requires NeighborhoodSet to return the
// map-based referee's sorted set, empty sets and repeated vertices
// included.
func TestNeighborhoodSetMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 2000; trial++ {
		g := refereeGraph(rng)
		var S []int
		for k := rng.Intn(g.N() + 2); k > 0 && g.N() > 0; k-- {
			S = append(S, rng.Intn(g.N()))
		}
		if got, want := g.NeighborhoodSet(S), neighborhoodRef(g, S); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d S=%v: %v, referee %v", trial, S, got, want)
		}
	}
}
