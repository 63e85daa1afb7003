package mechanism

import (
	"context"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
)

// BD is the paper's Bottleneck-Decomposition Allocation Mechanism
// (Definition 5) rehomed behind the Mechanism interface: decompose the
// graph (Definition 2), then realize the proportional-response equilibrium
// with one bipartite max flow per bottleneck pair. It is the Default
// backend and the only one with decomposition, exact-optimizer, and
// certificate capabilities.
type BD struct{}

// Name implements Mechanism.
func (BD) Name() string { return "bd" }

// Description implements Describer.
func (BD) Description() string {
	return "bottleneck-decomposition allocation (Definition 5): the exact proportional-response equilibrium"
}

// Certifiable implements Certifier: BD answers can ship exact-rational
// certificates (internal/cert).
func (BD) Certifiable() bool { return true }

// Allocate implements Mechanism via the classic pipeline: bottleneck
// decomposition under the auto engine, then allocation.Compute. It is
// bit-identical to the pre-registry facade/server default path.
func (b BD) Allocate(ctx context.Context, g *graph.Graph) (*allocation.Allocation, error) {
	d, err := b.Decompose(ctx, g, bottleneck.EngineAuto)
	if err != nil {
		return nil, err
	}
	return allocation.Compute(g, d)
}

// Decompose implements Decomposer, exposing the engine selection of the
// underlying solver.
func (BD) Decompose(ctx context.Context, g *graph.Graph, engine bottleneck.Engine) (*bottleneck.Decomposition, error) {
	return bottleneck.DecomposeCtx(ctx, g, engine)
}

// DecomposeParallel is Decompose with per-component parallel decomposition
// (the facade's WithWorkers path).
func (BD) DecomposeParallel(ctx context.Context, g *graph.Graph, engine bottleneck.Engine, workers int) (*bottleneck.Decomposition, error) {
	return bottleneck.DecomposeParallelCtx(ctx, g, engine, workers)
}

// OptimizeRing implements RingOptimizer with the certified piecewise
// optimizer of core.Instance (Theorem 8 machinery).
func (BD) OptimizeRing(ctx context.Context, g *graph.Graph, v int, opts core.OptimizeOptions) (*core.OptResult, error) {
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		return nil, err
	}
	return in.OptimizeCtx(ctx, opts)
}

func init() { Register(BD{}) }
