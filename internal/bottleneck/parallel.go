package bottleneck

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
)

// DecomposeParallel computes the bottleneck decomposition by decomposing
// each connected component concurrently and merging the per-component pair
// sequences by α-ratio.
//
// This is exact, not approximate: Γ never crosses components, so the global
// maximal bottleneck at each stage is the union of the per-component
// bottlenecks attaining the current global minimum α. The only subtlety is
// ties — when bottlenecks in different components share an α, the global
// decomposition extracts them as ONE pair, so the merge unions equal-α
// pairs (and the final α = 1 self-pairs, including the zero-weight
// convention pairs, collapse into one).
//
// For a connected graph this adds only goroutine overhead over
// DecomposeWith; its value is on the disconnected graphs the Sybil analysis
// mass-produces (every two-attacker split of a ring is two disjoint paths).
func DecomposeParallel(g *graph.Graph, engine Engine, workers int) (*Decomposition, error) {
	return DecomposeParallelCtx(context.Background(), g, engine, workers)
}

// DecomposeParallelCtx is DecomposeParallel with cancellation and tracing:
// the context reaches every per-component decomposition, and when it
// carries an obs span the merge is recorded as one span with the component
// fan-out on it.
func DecomposeParallelCtx(ctx context.Context, g *graph.Graph, engine Engine, workers int) (*Decomposition, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("bottleneck: empty graph")
	}
	comps := g.Components()
	if len(comps) == 1 {
		return decomposeInner(ctx, g, engine)
	}
	ctx, span := obs.Start(ctx, "bottleneck.decompose_parallel")
	defer span.End()
	if span != nil {
		span.SetAttr("components", strconv.Itoa(len(comps)))
	}
	type result struct {
		dec  *Decomposition
		orig []int
		err  error
	}
	results := par.MapCtx(ctx, len(comps), workers, func(ctx context.Context, i int) result {
		sub, orig := g.InducedSubgraph(comps[i])
		dec, err := decomposeInner(ctx, sub, engine)
		return result{dec: dec, orig: orig, err: err}
	})
	// Zero-weight convention pairs (w(B) = 0, the trailing self-pairs of
	// DecomposeWith's zero-attachment convention) stay out of the α-merge:
	// the global extraction never sees zero-weight vertices in a real stage,
	// so they union into the single trailing pair instead of being absorbed
	// by a positive α = 1 bottleneck.
	var all []Pair
	var zeroTrail []int
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("bottleneck: component %d: %w", i, r.err)
		}
		for _, p := range r.dec.Pairs {
			b := mapBack(p.B, r.orig)
			if g.WeightOf(b).Sign() == 0 {
				zeroTrail = unionSortedInts(zeroTrail, b)
				continue
			}
			all = append(all, Pair{
				B:     b,
				C:     mapBack(p.C, r.orig),
				Alpha: p.Alpha,
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Alpha.Less(all[j].Alpha) })
	// Union equal-α runs into single pairs, as the global extraction would.
	d := &Decomposition{}
	for i := 0; i < len(all); {
		merged := all[i]
		j := i + 1
		for ; j < len(all) && all[j].Alpha.Equal(merged.Alpha); j++ {
			merged.B = unionSortedInts(merged.B, all[j].B)
			merged.C = unionSortedInts(merged.C, all[j].C)
		}
		d.Pairs = append(d.Pairs, merged)
		i = j
	}
	if len(zeroTrail) > 0 {
		d.Pairs = append(d.Pairs, Pair{B: zeroTrail, C: zeroTrail, Alpha: numeric.One})
	}
	if err := d.finish(g.N()); err != nil {
		return nil, err
	}
	return d, nil
}

// unionSortedInts merges two sorted, disjoint int slices.
func unionSortedInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
