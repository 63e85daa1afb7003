package maxflow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/numeric"
)

// resetArcs draws a network of n nodes for the Reset referee: about 40% of
// the ordered pairs as arcs, one in five Inf, the rest small fractions.
// With past set it adds two dust arcs 1/(2^63−1) and 1/(2^63−2), whose L
// puts any other nonzero capacity past the fixed-width bound, so Dinic runs
// on rationals.
func resetArcs(rng *rand.Rand, n int, past bool) []testArc {
	var arcs []testArc
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() > 0.4 {
				continue
			}
			a := finArc(u, v, int64(rng.Intn(20)), int64(1+rng.Intn(12)))
			if rng.Intn(5) == 0 {
				a = infArc(u, v)
			}
			arcs = append(arcs, a)
		}
	}
	if past {
		arcs = append(arcs,
			finArc(rng.Intn(n), rng.Intn(n), 1, math.MaxInt64),
			finArc(rng.Intn(n), rng.Intn(n), 1, math.MaxInt64-1))
	}
	return arcs
}

// rebuild resets nw to the network (n, arcs), with source 0 and sink n−1,
// and adds the arcs in order.
func rebuild(nw *Network, n int, arcs []testArc) []int {
	nw.Reset(n, 0, n-1, len(arcs))
	ids := make([]int, len(arcs))
	for i, a := range arcs {
		ids[i] = nw.AddEdge(a.u, a.v, a.cap())
	}
	return ids
}

// sameSolve requires got and want, built from the same arcs, to agree after
// solving with algo: value, arithmetic, every arc's flow, push count, both
// min-cut sides and conservation.
func sameSolve(t *testing.T, what string, got, want *Network, ids []int, algo Algorithm) {
	t.Helper()
	vGot, vWant := got.Solve(algo), want.Solve(algo)
	if vGot.String() != vWant.String() || got.fixed != want.fixed || got.Pushes() != want.Pushes() {
		t.Fatalf("%s %v: value %v fixed=%v pushes %d, fresh %v fixed=%v pushes %d",
			what, algo, vGot, got.fixed, got.Pushes(), vWant, want.fixed, want.Pushes())
	}
	for _, id := range ids {
		if f, w := got.Flow(id), want.Flow(id); f.String() != w.String() {
			t.Fatalf("%s %v: arc %d flow %v, fresh %v", what, algo, id, f, w)
		}
	}
	for _, maximal := range []bool{false, true} {
		if g, w := got.MinCutSourceSide(maximal), want.MinCutSourceSide(maximal); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s %v maximal=%v: cut side %v, fresh %v", what, algo, maximal, g, w)
		}
	}
	if err := got.CheckConservation(); err != nil {
		t.Fatalf("%s %v: %v", what, algo, err)
	}
}

// TestResetMatchesNewNetwork rebuilds one network, by Reset, as a sequence
// of networks that grows and shrinks (3 to 16 nodes), and requires each
// rebuild to solve exactly as a NewNetwork build of the same arcs under
// every algorithm, in both of Dinic's arithmetics. Every third rebuild
// follows a Dinic solve that the maxflow.push fault site cut short with a
// panic, which the rebuild must leave no trace of.
func TestResetMatchesNewNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nw := NewNetwork(2, 0, 1, 0)
	prevN := 2
	var grew, shrank, fixed, rat, cut int
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(14)
		arcs := resetArcs(rng, n, trial%4 == 3)
		switch {
		case n > prevN:
			grew++
		case n < prevN:
			shrank++
		}
		prevN = n
		var pushes int64 // Dinic's
		for _, algo := range []Algorithm{Dinic, PushRelabel, EdmondsKarp} {
			ids := rebuild(nw, n, arcs)
			want, _ := buildTestNetwork(n, arcs)
			sameSolve(t, fmt.Sprintf("trial %d (n=%d)", trial, n), nw, want, ids, algo)
			if algo == Dinic {
				pushes = nw.Pushes()
				if nw.fixed {
					fixed++
				} else {
					rat++
				}
			}
		}
		if trial%3 == 2 && pushes > 0 {
			// Rebuild, then solve again with a panic at a random push.
			rebuild(nw, n, arcs)
			inj, err := fault.New(1, fault.Rule{Site: fault.SiteMaxflowPush, Kind: fault.KindError, Every: 1 + rng.Int63n(pushes), Limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() != nil {
						cut++
					}
				}()
				nw.SolveCtx(fault.ContextWith(context.Background(), inj), Dinic)
			}()
		}
	}
	if grew < 20 || shrank < 20 || fixed < 20 || rat < 20 || cut < 20 {
		t.Fatalf("rebuilds after a smaller network %d, after a larger %d; fixed %d, rat %d; cut-short solves %d: each must be at least 20",
			grew, shrank, fixed, rat, cut)
	}
}

// TestMinCutSidesAreNetworkOwned pins MinCutSourceSide's lifetime: each
// side is storage the network owns, which a call for the other side or a
// repeated call leaves in place and the next solve after a rebuild
// overwrites, so a caller that keeps a side across solves must copy it.
func TestMinCutSidesAreNetworkOwned(t *testing.T) {
	// path rebuilds nw as s → a → t with its narrow arc first (both sides
	// {s}) or last (both sides {s, a}).
	path := func(nw *Network, narrowFirst bool) []bool {
		first, last := int64(1), int64(5)
		if !narrowFirst {
			first, last = last, first
		}
		nw.Reset(3, 0, 2, 2)
		nw.AddEdge(0, 1, Finite(numeric.FromInt(first)))
		nw.AddEdge(1, 2, Finite(numeric.FromInt(last)))
		return []bool{true, !narrowFirst, false}
	}
	for _, algo := range []Algorithm{Dinic, PushRelabel, EdmondsKarp} {
		nw := new(Network)
		want := path(nw, true)
		nw.Solve(algo)
		minSide, maxSide := nw.MinCutSourceSide(false), nw.MinCutSourceSide(true)
		if !slices.Equal(minSide, want) || !slices.Equal(maxSide, want) {
			t.Fatalf("%v: sides %v, %v, want %v", algo, minSide, maxSide, want)
		}
		if again := nw.MinCutSourceSide(false); &again[0] != &minSide[0] || !slices.Equal(maxSide, want) {
			t.Fatalf("%v: a repeated call moved the minimal side (%p, %p) or changed the maximal one (%v)",
				algo, &again[0], &minSide[0], maxSide)
		}
		want = path(nw, false)
		nw.Solve(algo)
		nw.MinCutSourceSide(false)
		nw.MinCutSourceSide(true)
		if !slices.Equal(minSide, want) || !slices.Equal(maxSide, want) {
			t.Fatalf("%v: sides kept across a rebuild read %v, %v; the network's storage holds %v", algo, minSide, maxSide, want)
		}
	}
}
