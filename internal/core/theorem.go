package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// Verdict bundles the full Theorem 8 verification of one (ring, agent)
// instance: the optimizer's best split, the incentive ratio, and the
// stage-analysis report at the optimum.
type Verdict struct {
	Instance *Instance
	Opt      *OptResult
	Stages   *StageReport
	// Ratio is ζ_v as measured: best attack utility / honest utility.
	Ratio numeric.Rat
	// LeqTwo is the Theorem 8 statement ζ_v ≤ 2, checked exactly.
	LeqTwo bool
}

// VerifyTheorem8 optimizes the Sybil split of agent v on ring g and checks
// every assertion of the paper's proof along the way.
func VerifyTheorem8(g *graph.Graph, v int, opts OptimizeOptions) (*Verdict, error) {
	in, err := NewInstance(g, v)
	if err != nil {
		return nil, err
	}
	opt, err := in.Optimize(opts)
	if err != nil {
		return nil, err
	}
	stages, err := in.AnalyzeStages(opt.BestW1)
	if err != nil {
		return nil, err
	}
	return &Verdict{
		Instance: in,
		Opt:      opt,
		Stages:   stages,
		Ratio:    opt.Ratio,
		LeqTwo:   opt.Ratio.LessEq(numeric.Two),
	}, nil
}

// LowerBoundFamily builds the ring family whose incentive ratio approaches
// the tight bound 2 (experiment E6), located by exhaustive search with this
// package's exact optimizer:
//
//	an odd ring of n = 2k+5 vertices, all of weight 1 except one heavy
//	vertex of weight H at position 0; the attacker sits at ring distance 3
//	from it.
//
// As H → ∞ the measured ratio converges to (2k+1)/(k+1), which increases to
// 2 as k → ∞ — matching the lower bound of 2 from Chen et al. [5] that
// Theorem 8 proves tight.
func LowerBoundFamily(k int, heavy numeric.Rat) (*graph.Graph, int, error) {
	if k < 0 {
		return nil, 0, fmt.Errorf("core: k must be non-negative, got %d", k)
	}
	if heavy.Sign() <= 0 {
		return nil, 0, fmt.Errorf("core: heavy weight must be positive, got %v", heavy)
	}
	n := 2*k + 5
	ws := make([]numeric.Rat, n)
	for i := range ws {
		ws[i] = numeric.One
	}
	ws[0] = heavy
	return graph.Ring(ws), 3, nil
}

// LowerBoundLimitRatio returns (2k+1)/(k+1), the H → ∞ incentive ratio of
// LowerBoundFamily(k, H).
func LowerBoundLimitRatio(k int) numeric.Rat {
	return numeric.New(2*int64(k)+1, int64(k)+1)
}
