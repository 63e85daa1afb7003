// Package core implements the paper's primary contribution: the analysis of
// a Sybil attack against the BD Allocation Mechanism on ring networks, whose
// incentive ratio Theorem 8 pins to exactly 2.
//
// An Instance fixes a ring G and a manipulative agent v. Splitting v into
// two identities v¹, v² (one per ring neighbor) turns the ring into the
// path P_v(w1, w2) with the identities as leaves. The package provides:
//
//   - exact evaluation of any split (and of the paper's off-simplex
//     intermediate configurations P_v(w1, w2) with w1 + w2 ≠ w_v used by the
//     two-stage proof),
//   - the honest split (w1⁰, w2⁰) of Lemma 9, read off the exact BD
//     allocation of the ring,
//   - a piece-aware optimizer for the attacker's best split (optimize.go),
//   - the two-stage decomposition of the proof with per-stage utility
//     deltas, the initial-form classification of Lemmas 14/20, and the
//     Adjusting Technique (stages.go),
//   - a Theorem 8 verdict for whole instances (theorem.go).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// Instance is a ring resource-sharing game with a designated manipulative
// agent.
//
// An Instance memoizes split evaluations: every distinct (w1, w2) pair is
// decomposed at most once (exact rational keys, so 1/3 and 2/6 share an
// entry), and fresh evaluations run through an incremental
// bottleneck.SplitSolver that reuses interior DP state across the sweep.
// Both layers are exact and safe for concurrent use — the optimizer's grid
// phase evaluates splits from many goroutines.
type Instance struct {
	G *graph.Graph // the ring
	V int          // the manipulative agent

	// Dec is the bottleneck decomposition of the ring.
	Dec *bottleneck.Decomposition
	// HonestU is U_v(G; w), the utility without deviation.
	HonestU numeric.Rat
	// W1Zero and W2Zero are the amounts v sends to its two neighbors under
	// the honest BD allocation; by Lemma 9, splitting with exactly these
	// weights reproduces HonestU on the path.
	W1Zero, W2Zero numeric.Rat

	// interior lists the ring vertices between the two neighbors in path
	// order n1 ... n2 (i.e. the ring order starting after v).
	interior []int
	n1, n2   int

	// Split-evaluation machinery, fixed at construction: the interior
	// weights and identity labels never change between evaluations, so they
	// are computed once, and path-weight scratch slices are pooled
	// (graph.Path copies its input).
	interiorWs     []numeric.Rat
	origOf         []int
	label1, label2 string
	solver         *bottleneck.SplitSolver
	wsPool         sync.Pool

	evalMu    sync.RWMutex
	evalCache map[evalKey]*PathEval

	cacheOff, incrementalOff atomic.Bool
	cacheHits, cacheMisses   atomic.Int64
}

// evalKey is the exact identity of a configuration: canonical rational
// strings, so equal rationals with different representations collide.
type evalKey struct {
	w1, w2 string
}

// EvalStats reports the Instance's split-evaluation cache behavior.
type EvalStats struct {
	// CacheHits / CacheMisses count EvalPair calls served from / added to
	// the per-instance evaluation cache.
	CacheHits, CacheMisses int64
	// Solver holds the incremental engine's own counters (warm starts,
	// transfer and tail cache hits, stock-engine fallbacks).
	Solver bottleneck.SplitSolverStats
}

// NewInstance validates g as a ring and precomputes the honest-side data.
func NewInstance(g *graph.Graph, v int) (*Instance, error) {
	return NewInstanceCtx(context.Background(), g, v)
}

// NewInstanceCtx is NewInstance with cancellation and tracing threaded into
// the honest-side decomposition.
func NewInstanceCtx(ctx context.Context, g *graph.Graph, v int) (*Instance, error) {
	if !g.IsRing() {
		return nil, fmt.Errorf("core: graph is not a ring")
	}
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("core: vertex %d out of range", v)
	}
	ctx, span := obs.Start(ctx, "core.new_instance")
	defer span.End()
	dec, err := bottleneck.DecomposeCtx(ctx, g, bottleneck.EngineAuto)
	if err != nil {
		return nil, fmt.Errorf("core: decomposing ring: %w", err)
	}
	alloc, err := allocation.Compute(g, dec)
	if err != nil {
		return nil, fmt.Errorf("core: allocating on ring: %w", err)
	}
	ring, err := g.RingOrder(v)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		G:        g,
		V:        v,
		Dec:      dec,
		HonestU:  dec.Utility(g, v),
		interior: ring[1:],
		n1:       ring[1],
		n2:       ring[len(ring)-1],
	}
	in.W1Zero = alloc.Get(v, in.n1)
	in.W2Zero = alloc.Get(v, in.n2)
	if !in.W1Zero.Add(in.W2Zero).Equal(g.Weight(v)) {
		return nil, fmt.Errorf("core: honest allocation sends %v+%v ≠ w_v = %v",
			in.W1Zero, in.W2Zero, g.Weight(v))
	}
	n := len(in.interior) + 2
	in.interiorWs = make([]numeric.Rat, len(in.interior))
	in.origOf = make([]int, n)
	in.origOf[0], in.origOf[n-1] = -1, -1
	for i, u := range in.interior {
		in.interiorWs[i] = g.Weight(u)
		in.origOf[i+1] = u
	}
	in.label1 = fmt.Sprintf("%s^1", g.Label(v))
	in.label2 = fmt.Sprintf("%s^2", g.Label(v))
	in.solver = bottleneck.NewSplitSolver(in.interiorWs)
	in.wsPool.New = func() any {
		ws := make([]numeric.Rat, n)
		return &ws
	}
	in.evalCache = make(map[evalKey]*PathEval)
	return in, nil
}

// SetEvalCache enables or disables the per-instance evaluation cache
// (enabled by default). The Instance is the one place its split engine is
// chosen — nothing else, Optimize included, changes it — so a cold
// reference is an Instance of its own with both knobs off. Correctness
// never depends on the cache.
func (in *Instance) SetEvalCache(on bool) { in.cacheOff.Store(!on) }

// SetIncremental enables or disables the incremental split engine (enabled
// by default); when off, fresh evaluations run a stock
// bottleneck.DecomposeWith per call, reproducing the pre-cache behavior.
func (in *Instance) SetIncremental(on bool) { in.incrementalOff.Store(!on) }

// EvalStats returns a snapshot of the evaluation-cache counters.
func (in *Instance) EvalStats() EvalStats {
	return EvalStats{
		CacheHits:   in.cacheHits.Load(),
		CacheMisses: in.cacheMisses.Load(),
		Solver:      in.solver.Stats(),
	}
}

// W returns w_v, the attacker's total endowment.
func (in *Instance) W() numeric.Rat { return in.G.Weight(in.V) }

// Neighbors returns the attacker's two ring neighbors (n1, n2); identity v¹
// attaches to n1 and v² to n2.
func (in *Instance) Neighbors() (n1, n2 int) { return in.n1, in.n2 }

// PathEval is the exact outcome of one configuration P_v(w1, w2).
type PathEval struct {
	W1, W2 numeric.Rat
	// Path is the evaluated path graph; position 0 is v¹, position N-1 is
	// v², positions 1..N-2 are the ring interior in order n1..n2.
	Path *graph.Graph
	// OrigOf maps path positions 1..N-2 back to ring vertex indices.
	OrigOf []int
	// V1, V2 are the path positions of the identities (0 and N-1).
	V1, V2 int
	// Dec is the bottleneck decomposition of Path.
	Dec *bottleneck.Decomposition
	// U1, U2 are the identities' utilities; U = U1 + U2.
	U1, U2, U numeric.Rat
	// Signature is Dec's structure signature (piece identity).
	Signature string
}

// EvalPair evaluates the configuration P_v(w1, w2) for arbitrary
// non-negative leaf weights — including the off-simplex intermediate
// configurations of the proof's Stages C-1/C-2 and D-1/D-2 where
// w1 + w2 ≠ w_v. Results are memoized per exact (w1, w2), so repeated
// evaluations (bisection revisits, breakpoint re-checks, the honest-split
// seed) return the same *PathEval without re-decomposing. PathEval is
// immutable after construction, which makes the sharing sound.
func (in *Instance) EvalPair(w1, w2 numeric.Rat) (*PathEval, error) {
	return in.EvalPairCtx(context.Background(), w1, w2)
}

// EvalPairCtx is EvalPair with cancellation threaded into the underlying
// decomposition (both the incremental solver and the stock engine). A
// canceled evaluation returns ctx.Err() and writes nothing to the cache, so
// shared Instance state is never corrupted by an abandoned request.
func (in *Instance) EvalPairCtx(ctx context.Context, w1, w2 numeric.Rat) (*PathEval, error) {
	if w1.Sign() < 0 || w2.Sign() < 0 {
		return nil, fmt.Errorf("core: negative identity weight (%v, %v)", w1, w2)
	}
	useCache := !in.cacheOff.Load()
	var key evalKey
	if useCache {
		key = evalKey{w1: w1.String(), w2: w2.String()}
		in.evalMu.RLock()
		ev, ok := in.evalCache[key]
		in.evalMu.RUnlock()
		if ok {
			in.cacheHits.Add(1)
			obs.FromContext(ctx).AddInt("eval_cache_hits", 1)
			return ev, nil
		}
	}
	ev, err := in.evalPairFresh(ctx, w1, w2)
	if err != nil {
		return nil, err
	}
	if useCache {
		in.evalMu.Lock()
		if prev, ok := in.evalCache[key]; ok {
			ev = prev // concurrent compute: keep one canonical pointer
		} else {
			in.evalCache[key] = ev
		}
		in.evalMu.Unlock()
		in.cacheMisses.Add(1)
		obs.FromContext(ctx).AddInt("eval_cache_misses", 1)
	}
	return ev, nil
}

// evalPairFresh builds and decomposes the path for one configuration.
func (in *Instance) evalPairFresh(ctx context.Context, w1, w2 numeric.Rat) (*PathEval, error) {
	n := len(in.interior) + 2
	wsp := in.wsPool.Get().(*[]numeric.Rat)
	ws := *wsp
	ws[0] = w1
	copy(ws[1:n-1], in.interiorWs)
	ws[n-1] = w2
	p := graph.Path(ws) // copies ws; the scratch slice goes back to the pool
	in.wsPool.Put(wsp)
	p.SetLabel(0, in.label1)
	p.SetLabel(n-1, in.label2)
	var (
		dec *bottleneck.Decomposition
		err error
	)
	if in.incrementalOff.Load() {
		dec, err = bottleneck.DecomposeCtx(ctx, p, bottleneck.EnginePathDP)
	} else {
		dec, err = in.solver.EvalCtx(ctx, p, w1, w2)
	}
	if err != nil {
		return nil, fmt.Errorf("core: decomposing P_v(%v, %v): %w", w1, w2, err)
	}
	ev := &PathEval{
		W1: w1, W2: w2,
		Path: p, OrigOf: in.origOf,
		V1: 0, V2: n - 1,
		Dec: dec,
		U1:  dec.Utility(p, 0),
		U2:  dec.Utility(p, n-1),
	}
	ev.U = ev.U1.Add(ev.U2)
	ev.Signature = dec.StructureSignature()
	return ev, nil
}

// EvalSplit evaluates the legal Sybil split (w1, w_v − w1).
func (in *Instance) EvalSplit(w1 numeric.Rat) (*PathEval, error) {
	return in.EvalSplitCtx(context.Background(), w1)
}

// EvalSplitCtx is EvalSplit with cancellation (see EvalPairCtx).
func (in *Instance) EvalSplitCtx(ctx context.Context, w1 numeric.Rat) (*PathEval, error) {
	if w1.Sign() < 0 || in.W().Less(w1) {
		return nil, fmt.Errorf("core: split weight %v outside [0, %v]", w1, in.W())
	}
	return in.EvalPairCtx(ctx, w1, in.W().Sub(w1))
}

// EvalWithheldCtx evaluates the configuration P_v(w1, wk) reached by a
// k-identity Sybil split on the ring: identity v¹ (weight w1) attaches to
// the successor neighbor, identity v^k (weight wk) to the predecessor, and
// the k−2 middle identities carry the withheld remainder w_v − w1 − wk with
// no neighbors at all — they cannot trade, receive zero utility under any
// feasible exchange, and leave every other agent's utility unchanged, so
// the attacker's total is exactly U(v¹) + U(v^k) on the two-leaf path. The
// only legality constraint is therefore w1 + wk ≤ w_v; with equality (k = 2)
// this is EvalSplitCtx bit for bit.
func (in *Instance) EvalWithheldCtx(ctx context.Context, w1, wk numeric.Rat) (*PathEval, error) {
	if w1.Sign() < 0 || wk.Sign() < 0 || in.W().Less(w1.Add(wk)) {
		return nil, fmt.Errorf("core: withheld split (%v, %v) outside the simplex w1 + wk ≤ %v", w1, wk, in.W())
	}
	return in.EvalPairCtx(ctx, w1, wk)
}

// HonestSplitEval evaluates P_v(w1⁰, w2⁰); by Lemma 9 its total utility
// equals HonestU exactly.
func (in *Instance) HonestSplitEval() (*PathEval, error) {
	return in.EvalPair(in.W1Zero, in.W2Zero)
}

// VClass returns the attacker's class on the original ring, with the
// paper's convention that a vertex of the final self-pair (α = 1) is
// treated as C class for the case analysis.
func (in *Instance) VClass() bottleneck.Class {
	if c := in.Dec.ClassOf(in.V); c != bottleneck.ClassBoth {
		return c
	}
	return bottleneck.ClassC
}
