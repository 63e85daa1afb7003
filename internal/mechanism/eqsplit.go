package mechanism

import (
	"context"
	"fmt"

	"repro/internal/allocation"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// EqSplit is the degenerate no-reciprocity baseline: every agent splits its
// endowment equally among its neighbors, x_vu = w_v/deg(v), regardless of
// what it receives back. It is the t=0 state of the proportional-response
// dynamics and the natural control in tournaments — any mechanism that
// claims to reward contribution should separate from it on fairness and
// incentive-ratio columns.
type EqSplit struct{}

// Name implements Mechanism.
func (EqSplit) Name() string { return "eqsplit" }

// Description implements Describer.
func (EqSplit) Description() string {
	return "equal-split baseline: x_vu = w_v/deg(v), no reciprocity (round-0 proportional response)"
}

// Allocate implements Mechanism.
func (EqSplit) Allocate(_ context.Context, g *graph.Graph) (*allocation.Allocation, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mechanism/eqsplit: empty graph")
	}
	return allocationOf(g, equalSplit(g)), nil
}

// equalSplit is the exact equal split in adjacency order: x[v][j] =
// w_v/deg(v) is what v sends its j-th neighbor. It is EqSplit's allocation
// and PR's round 0.
func equalSplit(g *graph.Graph) [][]numeric.Rat {
	x := make([][]numeric.Rat, g.N())
	for v := range x {
		nb := g.Neighbors(v)
		x[v] = make([]numeric.Rat, len(nb))
		if len(nb) == 0 || g.Weight(v).IsZero() {
			continue
		}
		share := g.Weight(v).DivInt(int64(len(nb)))
		for j := range nb {
			x[v][j] = share
		}
	}
	return x
}

// allocationOf is the allocation of the transfers x, given in adjacency
// order as equalSplit returns them; zero transfers are left out.
func allocationOf(g *graph.Graph, x [][]numeric.Rat) *allocation.Allocation {
	a := allocation.New(g.N())
	for v, row := range x {
		for j, u := range g.Neighbors(v) {
			if !row[j].IsZero() {
				a.Add(v, u, row[j])
			}
		}
	}
	return a
}

func init() { Register(EqSplit{}) }
