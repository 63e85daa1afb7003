package bottleneck

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// Engine selects the λ-subproblem solver used inside the decomposition.
type Engine int

const (
	// EngineAuto uses the path/cycle DP whenever the residual graph allows
	// it and falls back to the flow engine otherwise.
	EngineAuto Engine = iota
	// EngineFlow always uses the parametric max-flow solver.
	EngineFlow
	// EnginePathDP always uses the path/cycle DP; decomposition fails if a
	// residual component is neither a path nor a cycle.
	EnginePathDP
	// EngineBrute enumerates subsets exhaustively (test oracle, n ≤ 16).
	EngineBrute
)

// String names the engine for benchmark tables.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineFlow:
		return "flow"
	case EnginePathDP:
		return "path-dp"
	case EngineBrute:
		return "brute"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps an engine name (the String of an Engine; "" = auto) to
// the engine. It is the one parser of the name for the CLI and the wire.
func ParseEngine(s string) (Engine, error) {
	for e := EngineAuto; e <= EngineBrute; e++ {
		if s == e.String() {
			return e, nil
		}
	}
	if s == "" {
		return EngineAuto, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

// Decompose computes the bottleneck decomposition of g with the automatic
// engine.
func Decompose(g *graph.Graph) (*Decomposition, error) {
	return DecomposeWith(g, EngineAuto)
}

// DecomposeWith computes the bottleneck decomposition of g (Definition 2):
// repeatedly extract the maximal bottleneck B_i of the residual graph G_i
// and remove B_i ∪ C_i, C_i = Γ(B_i) ∩ V_i.
//
// Zero-weight agents own nothing, trade nothing, and earn nothing, but the
// Sybil analysis produces them (a split with w1 = 0), so they are supported
// by an explicit convention that matches the paper's Case C-2 and the
// maximal-minimizer semantics on leaves: the positive-weight subgraph is
// decomposed for real, and then, pair by pair in α order, a zero-weight
// agent joins C_i when it has a neighbor in B_i, or joins B_i when every
// still-active neighbor lies in C_i. Zeros never reached this way (isolated
// zeros, clusters of mutually-adjacent zeros) form a trailing self-pair
// with α = 1 by convention. (Running the parametric solver on the raw graph
// instead would be wrong: f_λ is blind to zero weights, so the "maximal
// minimizer" could absorb an adjacent zero-zero pair and violate B's
// independence.)
func DecomposeWith(g *graph.Graph, engine Engine) (*Decomposition, error) {
	return decomposeInner(context.Background(), g, engine)
}

// DecomposeCtx is DecomposeWith with cancellation: the context is checked at
// every stage boundary and every Dinkelbach iteration, so a canceled or
// timed-out decomposition returns ctx.Err() promptly instead of completing.
// No partial result is ever returned.
func DecomposeCtx(ctx context.Context, g *graph.Graph, engine Engine) (*Decomposition, error) {
	return decomposeInner(ctx, g, engine)
}

func decomposeInner(ctx context.Context, g *graph.Graph, engine Engine) (*Decomposition, error) {
	sc := scratchPool.Get().(*dpScratch)
	defer putScratch(sc)
	return decomposeIn(ctx, g, engine, sc)
}

// decomposeIn is decomposeInner in the scratch sc, which holds the DP
// stages' working memory and the λ-network of the flow stages.
func decomposeIn(ctx context.Context, g *graph.Graph, engine Engine, sc *dpScratch) (*Decomposition, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("bottleneck: empty graph")
	}
	ctx, dspan := obs.Start(ctx, "bottleneck.decompose")
	defer dspan.End()
	if dspan != nil {
		dspan.SetAttr("engine", engine.String())
		dspan.SetAttr("n", strconv.Itoa(g.N()))
	}
	var positive, zeros []int
	for v := 0; v < g.N(); v++ {
		if g.Weight(v).Sign() > 0 {
			positive = append(positive, v)
		} else {
			zeros = append(zeros, v)
		}
	}
	d := &Decomposition{}
	if len(positive) > 0 {
		// The stages run on the positive-weight subgraph, which is g
		// itself when no weight is zero. positive is ascending, so it maps
		// the subgraph's vertices to g's either way.
		posSub, posOrig := g, positive
		if len(zeros) > 0 {
			posSub, _ = g.InducedSubgraph(positive)
		}
		var net *lambdaNet // posSub's λ-network, built on the first flow stage
		remaining := make([]int, posSub.N())
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sctx, sspan := obs.Start(ctx, "bottleneck.stage")
			if sspan != nil {
				sspan.SetAttr("stage", strconv.Itoa(len(d.Pairs)+1))
				sspan.AddInt("remaining", int64(len(remaining)))
			}
			// The stage graph is posSub itself while the stage keeps every
			// vertex (always the first stage). remaining is ascending, so
			// it maps the stage's vertices to posSub's either way; it is
			// rewritten only after the stage's last use of orig.
			sub, orig := posSub, remaining
			if len(remaining) < posSub.N() {
				sub, _ = posSub.InducedSubgraph(remaining)
			}
			oracle, err := oracleFor(sub, engine, sc, func() *flowOracle {
				if net == nil {
					net = sc.lambdaNet(posSub)
				}
				return newFlowOracle(sctx, net, sub, orig)
			})
			if err != nil {
				return nil, err
			}
			var iterTrace func(lambda, value numeric.Rat)
			if sspan != nil {
				iterTrace = func(lambda, value numeric.Rat) {
					sspan.AddInt("iters", 1)
					sspan.AddEvent("dinkelbach_iter", "lambda", lambda.String(), "value", value.String())
				}
			}
			alpha, bLocal, err := maxBottleneck(sctx, sub, oracle, iterTrace)
			if err != nil {
				sspan.End()
				return nil, err
			}
			cLocal := sub.NeighborhoodSet(bLocal)
			// Defensive audit: the Dinkelbach λ must equal w(C)/w(B) exactly.
			if wb := sub.WeightOf(bLocal); !sub.WeightOf(cLocal).Div(wb).Equal(alpha) {
				return nil, fmt.Errorf("bottleneck: internal α mismatch: λ=%v but w(C)/w(B)=%v",
					alpha, sub.WeightOf(cLocal).Div(wb))
			}
			pair := Pair{
				B:     mapBack(mapBack(bLocal, orig), posOrig),
				C:     mapBack(mapBack(cLocal, orig), posOrig),
				Alpha: alpha,
			}
			d.Pairs = append(d.Pairs, pair)
			if sspan != nil {
				sspan.SetAttr("alpha", alpha.String())
				sspan.AddInt("pair_size", int64(len(pair.B)+len(pair.C)))
			}
			sspan.End()
			remove := sc.vertexMarks(posSub.N())
			for _, v := range bLocal {
				remove[orig[v]] = true
			}
			for _, v := range cLocal {
				remove[orig[v]] = true
			}
			next := remaining[:0]
			for _, v := range remaining {
				if !remove[v] {
					next = append(next, v)
				}
			}
			if len(next) == len(remaining) {
				return nil, fmt.Errorf("bottleneck: decomposition made no progress (empty pair)")
			}
			remaining = next
		}
	}
	if len(zeros) > 0 {
		d.attachZeros(g, zeros)
	}
	if err := d.finish(g.N()); err != nil {
		return nil, err
	}
	return d, nil
}

// attachZeros places zero-weight vertices into the positive pairs per the
// convention documented on DecomposeWith, leaving unreachable zeros in a
// trailing α = 1 self-pair.
func (d *Decomposition) attachZeros(g *graph.Graph, zeros []int) {
	assignedPair := make(map[int]int) // vertex → pair index (B or C member)
	inB := make(map[int]bool)
	inC := make(map[int]bool)
	for i, p := range d.Pairs {
		for _, v := range p.B {
			assignedPair[v], inB[v] = i, true
		}
		for _, v := range p.C {
			assignedPair[v], inC[v] = i, true
		}
	}
	unassigned := make(map[int]bool, len(zeros))
	for _, z := range zeros {
		unassigned[z] = true
	}
	selfP := make([]bool, len(d.Pairs))
	for i, p := range d.Pairs {
		selfP[i] = p.selfPaired()
	}
	for i := range d.Pairs {
		for changed := true; changed; {
			changed = false
			// C-join: a neighbor in B_i puts z into Γ(B_i) = C_i. A zero
			// joining a self-pair (B_k = C_k) joins both sides — its class
			// is Both, like the rest of the pair.
			for z := range unassigned {
				for _, u := range g.Neighbors(z) {
					if inB[u] && assignedPair[u] == i {
						d.Pairs[i].C = insertSortedInt(d.Pairs[i].C, z)
						inC[z] = true
						if selfP[i] {
							d.Pairs[i].B = insertSortedInt(d.Pairs[i].B, z)
							inB[z] = true
						}
						assignedPair[z] = i
						delete(unassigned, z)
						changed = true
						break
					}
				}
			}
			// B-join: every still-active neighbor (not consumed by an
			// earlier pair) lies in C_i — the free absorption of the
			// maximal minimizer. Into a self-pair z joins both sides, as
			// the C-join would have put it once its neighbor joined:
			// which join comes first depends only on map order.
			for z := range unassigned {
				ok := false
				for _, u := range g.Neighbors(z) {
					if j, done := assignedPair[u]; done && j < i {
						continue // consumed before this stage
					}
					if inC[u] && assignedPair[u] == i {
						ok = true
						continue
					}
					ok = false
					break
				}
				if ok {
					d.Pairs[i].B = insertSortedInt(d.Pairs[i].B, z)
					assignedPair[z], inB[z] = i, true
					if selfP[i] {
						d.Pairs[i].C = insertSortedInt(d.Pairs[i].C, z)
						inC[z] = true
					}
					delete(unassigned, z)
					changed = true
				}
			}
		}
	}
	if len(unassigned) > 0 {
		rest := make([]int, 0, len(unassigned))
		for z := range unassigned {
			rest = append(rest, z)
		}
		sort.Ints(rest)
		d.Pairs = append(d.Pairs, Pair{B: rest, C: rest, Alpha: numeric.One})
	}
}

func insertSortedInt(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// MaxBottleneck computes the maximal bottleneck of g directly — the unique
// inclusion-maximal set B minimizing α(S) = w(Γ(S))/w(S) — together with
// its ratio, without running the full decomposition. The graph must have
// positive total weight.
func MaxBottleneck(g *graph.Graph, engine Engine) (B []int, alpha numeric.Rat, err error) {
	ctx := context.Background()
	sc := scratchPool.Get().(*dpScratch)
	defer putScratch(sc)
	oracle, err := oracleFor(g, engine, sc, func() *flowOracle { return graphFlowOracle(ctx, g, sc) })
	if err != nil {
		return nil, numeric.Rat{}, err
	}
	alpha, B, err = maxBottleneck(ctx, g, oracle, nil)
	return B, alpha, err
}

func mapBack(local []int, orig []int) []int {
	out := make([]int, len(local))
	for i, v := range local {
		out[i] = orig[v]
	}
	sort.Ints(out)
	return out
}

// oracleFor selects the λ-subproblem solver of the stage graph sub; flow
// binds sub to its decomposition's λ-network, and the DP runs in sc. The
// automatic engine runs the path/cycle DP exactly when no vertex has degree
// above 2, which in a simple graph is when every component is a path or a
// cycle.
func oracleFor(sub *graph.Graph, engine Engine, sc *dpScratch, flow func() *flowOracle) (minimizeOracle, error) {
	switch engine {
	case EngineAuto:
		if !pathsAndCycles(sub) {
			return flow(), nil
		}
		return newDPOracle(sub, sc)
	case EngineFlow:
		return flow(), nil
	case EnginePathDP:
		return newDPOracle(sub, sc)
	case EngineBrute:
		return newBruteOracle(sub)
	default:
		return nil, fmt.Errorf("bottleneck: unknown engine %d", int(engine))
	}
}

// pathsAndCycles reports whether no vertex of g has degree above 2.
func pathsAndCycles(g *graph.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 2 {
			return false
		}
	}
	return true
}
