package mechanism

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/allocation"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// allocOnly hides every optional capability of a mechanism: callers see
// only its Name and Allocate, so Utilities reads its allocation.
type allocOnly struct{ m Mechanism }

func (a allocOnly) Name() string { return a.m.Name() }
func (a allocOnly) Allocate(ctx context.Context, g *graph.Graph) (*allocation.Allocation, error) {
	return a.m.Allocate(ctx, g)
}

// utilitiesWeight draws zero, small integers, k/2^48 dust, small fractions
// and values whose parts are past int64.
func utilitiesWeight(rng *rand.Rand) numeric.Rat {
	switch rng.Intn(7) {
	case 0:
		return numeric.Zero
	case 1, 2:
		return numeric.FromInt(1 + rng.Int63n(20))
	case 3:
		return numeric.New(1+rng.Int63n(1<<48), 1<<48)
	case 4:
		num := new(big.Int).Lsh(big.NewInt(1+rng.Int63n(1000)), 64)
		den := new(big.Int).Exp(big.NewInt(3), big.NewInt(30+rng.Int63n(20)), nil)
		return numeric.FromBig(new(big.Rat).SetFrac(num, den))
	}
	return numeric.New(1+rng.Int63n(100), 1+rng.Int63n(12))
}

// utilitiesCorpus returns the five topology families and random graphs
// that may be disconnected or hold isolated vertices, on utilitiesWeight
// weights.
func utilitiesCorpus(n int) []*graph.Graph {
	rng := rand.New(rand.NewSource(24))
	gs := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		size := 5 + rng.Intn(8)
		var g *graph.Graph
		switch i % 6 {
		case 0:
			g = graph.RandomRing(rng, size, graph.DistUniform)
		case 1:
			g = graph.RandomTree(rng, size, graph.DistUniform)
		case 2:
			g = graph.RandomBarbell(rng, size, graph.DistUniform)
		case 3:
			g = graph.SmallWorld(rng, size, 0.3, graph.DistUniform)
		case 4:
			g = graph.RandomConnected(rng, size, 0.15, graph.DistUniform)
		default:
			g = graph.New(size)
			for u := 0; u < size; u++ {
				for v := u + 1; v < size; v++ {
					if rng.Intn(5) == 0 {
						g.MustAddEdge(u, v)
					}
				}
			}
		}
		for v := 0; v < size; v++ {
			g.MustSetWeight(v, utilitiesWeight(rng))
		}
		gs = append(gs, g)
	}
	return gs
}

// TestUtilitiesMatchAllocate requires Utilities to return, under every
// registered mechanism, exactly the utilities of its allocation — for BD,
// the Proposition 6 reading of its decomposition against the per-pair
// allocation flows — and the allocation's error on a canceled context.
func TestUtilitiesMatchAllocate(t *testing.T) {
	ctx := context.Background()
	for _, name := range Names() {
		m, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		gs := utilitiesCorpus(60)
		if name != Default {
			gs = corpus(t, 9) // the iterative mechanisms on small weights only
		}
		for i, g := range gs {
			got, err := Utilities(ctx, m, g)
			if err != nil {
				t.Fatalf("%s graph %d: %v", name, i, err)
			}
			a, err := m.Allocate(ctx, g)
			if err != nil {
				t.Fatalf("%s graph %d: allocate: %v", name, i, err)
			}
			if want := a.Utilities(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s graph %d: utilities %v, allocation %v", name, i, got, want)
			}
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	g := utilitiesCorpus(1)[0]
	_, err := Utilities(canceled, BD{}, g)
	_, want := BD{}.Allocate(canceled, g)
	if err == nil || fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("canceled: error %v, allocation's %v", err, want)
	}
}

// TestEvaluateCellWithoutDecomposer requires a tournament cell under BD to
// be byte-identical to the cell of a mechanism that allocates exactly as BD
// does but hides its Decomposer (so its utilities come from allocations and
// its sweep from the generic split path).
func TestEvaluateCellWithoutDecomposer(t *testing.T) {
	ctx := context.Background()
	rings := []*graph.Graph{
		graph.Ring(numeric.Ints(3, 1, 2, 1, 5)),
		graph.Ring([]numeric.Rat{numeric.New(7, 1<<48), numeric.FromInt(2), numeric.New(5, 3), numeric.FromInt(1), numeric.FromInt(4), numeric.New(1, 2)}),
	}
	for i, g := range rings {
		want, err := EvaluateCell(ctx, BD{}, g, 0, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateCell(ctx, allocOnly{BD{}}, g, 0, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(gb) != string(wb) {
			t.Fatalf("ring %d: cell %s, BD %s", i, gb, wb)
		}
	}
}
