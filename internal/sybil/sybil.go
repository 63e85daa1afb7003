// Package sybil models the strategic behaviors studied by the paper and its
// predecessors against the BD Allocation Mechanism:
//
//   - the Sybil attack of Section II-D: an agent v splits into m ≤ d_v
//     fictitious identities, partitions its neighbors among them and divides
//     its endowment, collecting the identities' combined utility in the
//     resulting network G′;
//   - the misreporting strategy of Cheng et al. [7]: v reports a resource
//     amount x ∈ [0, w_v] instead of w_v (the single-parameter deviation
//     whose structural theory — Theorem 10, Propositions 11/12, Lemma 13 —
//     powers the paper's proof).
//
// The ring-specific two-identity optimizer lives in package core; this
// package provides the general-graph machinery and the exhaustive attack
// search used for the conclusion's general-network conjecture (E13).
package sybil

import (
	"fmt"

	"repro/internal/bottleneck"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// HonestUtility returns U_v(G; w) under the BD Allocation Mechanism.
func HonestUtility(g *graph.Graph, v int) (numeric.Rat, error) {
	d, err := bottleneck.Decompose(g)
	if err != nil {
		return numeric.Rat{}, err
	}
	return d.Utility(g, v), nil
}

// AttackUtility returns the attacker's total utility Σ_i U_{v^i}(G′) after
// applying the split sp to g.
func AttackUtility(g *graph.Graph, sp graph.SplitSpec) (numeric.Rat, error) {
	gp, ids, err := graph.Split(g, sp)
	if err != nil {
		return numeric.Rat{}, err
	}
	d, err := bottleneck.Decompose(gp)
	if err != nil {
		return numeric.Rat{}, err
	}
	total := numeric.Zero
	for _, id := range ids {
		total = total.Add(d.Utility(gp, id))
	}
	return total, nil
}

// MisreportUtility returns U_v when v reports x in place of w_v (all other
// weights fixed). The report must satisfy 0 ≤ x ≤ w_v.
func MisreportUtility(g *graph.Graph, v int, x numeric.Rat) (numeric.Rat, error) {
	if x.Sign() < 0 || g.Weight(v).Less(x) {
		return numeric.Rat{}, fmt.Errorf("sybil: report %v outside [0, %v]", x, g.Weight(v))
	}
	gp := g.Clone()
	gp.MustSetWeight(v, x)
	d, err := bottleneck.Decompose(gp)
	if err != nil {
		return numeric.Rat{}, err
	}
	return d.Utility(gp, v), nil
}

// Partitions enumerates all partitions of items into at most maxParts
// non-empty blocks (order of blocks and within blocks is canonical). The
// number of results is a Bell-ish number; callers keep len(items) small.
func Partitions(items []int, maxParts int) [][][]int {
	if len(items) == 0 || maxParts < 1 {
		return nil
	}
	var out [][][]int
	var rec func(i int, blocks [][]int)
	rec = func(i int, blocks [][]int) {
		if i == len(items) {
			cp := make([][]int, len(blocks))
			for b := range blocks {
				cp[b] = append([]int(nil), blocks[b]...)
			}
			out = append(out, cp)
			return
		}
		for b := range blocks {
			blocks[b] = append(blocks[b], items[i])
			rec(i+1, blocks)
			blocks[b] = blocks[b][:len(blocks[b])-1]
		}
		if len(blocks) < maxParts {
			blocks = append(blocks, []int{items[i]})
			rec(i+1, blocks)
		}
	}
	rec(0, nil)
	return out
}

// Compositions enumerates all ways to write total as an ordered sum of
// parts non-negative integers, in lexicographic order of the digit vector.
// It materializes the whole list — callers keep total/parts small; the
// scenario engine's streaming odometer (internal/scenario) enumerates the
// same order without materializing, and is pinned against this function.
func Compositions(total, parts int) [][]int {
	if parts == 1 {
		return [][]int{{total}}
	}
	var out [][]int
	for first := 0; first <= total; first++ {
		for _, rest := range Compositions(total-first, parts-1) {
			out = append(out, append([]int{first}, rest...))
		}
	}
	return out
}

// SearchOptions tunes the exhaustive attack search.
type SearchOptions struct {
	// MaxParts bounds the number of identities (default: the degree of v).
	MaxParts int
	// GridResolution discretizes the weight simplex: each identity receives
	// w_v·(k_i/GridResolution) with Σk_i = GridResolution (default 8).
	GridResolution int
}

// SearchResult reports the best attack found.
type SearchResult struct {
	// Honest is U_v(G; w).
	Honest numeric.Rat
	// Best is the highest attacker utility over the searched strategy space.
	Best numeric.Rat
	// Ratio = Best / Honest (1 when Honest = Best = 0).
	Ratio numeric.Rat
	// Spec is a maximizing strategy.
	Spec graph.SplitSpec
	// Tried counts evaluated strategies.
	Tried int
}

// Search exhaustively evaluates Sybil strategies for vertex v over all
// neighbor partitions and a weight grid, returning the best found. It is a
// lower-bound probe of ζ_v, not an exact optimum (the grid discretizes the
// simplex); the paper's exact ring machinery lives in package core.
func Search(g *graph.Graph, v int, opts SearchOptions) (*SearchResult, error) {
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("sybil: vertex %d out of range", v)
	}
	if g.Degree(v) == 0 {
		return nil, fmt.Errorf("sybil: vertex %d has no neighbors to split over", v)
	}
	if opts.MaxParts <= 0 || opts.MaxParts > g.Degree(v) {
		opts.MaxParts = g.Degree(v)
	}
	if opts.GridResolution <= 0 {
		opts.GridResolution = 8
	}
	honest, err := HonestUtility(g, v)
	if err != nil {
		return nil, err
	}
	res := &SearchResult{Honest: honest, Best: honest, Ratio: numeric.One}
	res.Spec = graph.SplitSpec{
		V:       v,
		Parts:   [][]int{append([]int(nil), g.Neighbors(v)...)},
		Weights: []numeric.Rat{g.Weight(v)},
	}
	for _, parts := range Partitions(g.Neighbors(v), opts.MaxParts) {
		m := len(parts)
		for _, comp := range Compositions(opts.GridResolution, m) {
			ws := make([]numeric.Rat, m)
			for i, k := range comp {
				ws[i] = g.Weight(v).MulInt(int64(k)).DivInt(int64(opts.GridResolution))
			}
			sp := graph.SplitSpec{V: v, Parts: parts, Weights: ws}
			u, err := AttackUtility(g, sp)
			if err != nil {
				return nil, fmt.Errorf("sybil: evaluating %v: %w", sp, err)
			}
			res.Tried++
			if res.Best.Less(u) {
				res.Best = u
				res.Spec = sp
			}
		}
	}
	ratio, err := scan.Ratio(res.Best, honest)
	if err != nil {
		return nil, fmt.Errorf("sybil: %w (unbounded ratio)", err)
	}
	res.Ratio = ratio
	return res, nil
}
