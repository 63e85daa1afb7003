// Package maxflow implements exact maximum-flow / minimum-cut computation
// over rational capacities.
//
// The BD Allocation Mechanism (Definition 5 of the paper) and the parametric
// search for maximal bottlenecks both reduce to max-flow instances whose
// capacities are exact rationals and whose results feed exact comparisons.
// Three solvers are provided — Dinic's algorithm, FIFO push–relabel, and the
// Edmonds–Karp baseline — sharing one network representation; the
// experiment harness ablates them against each other (experiment E12).
//
// Push–relabel and Edmonds–Karp work in numeric.Rat arithmetic. Dinic runs
// on fixed-width integer cells whenever the network admits them and on
// numeric.Rat otherwise (dinicfixed.go): the capacities are scaled by L,
// the lcm of their denominators, and the network is admitted exactly when
// (1+k)·L·(1 + Σ capacities) < 2^126, k counting the ∞ arcs leaving the
// source, however large the capacities' numerators and denominators are on
// their own. One traversal serves both arithmetics, which enter only where
// a path is augmented, so both take the same levels, augmenting paths and
// pushes. Flows are read back as canonical rationals.
//
// Infinite capacities (used for the "selector → covered" arcs of the
// bottleneck network and the B_i × C_i arcs of the allocation network) are
// replaced at solve time by a finite bound exceeding the total finite
// capacity; this preserves the max-flow value and every finite min-cut.
//
// NewNetwork takes the number of edges the caller will add and reserves
// their arcs up front, so a network allocates its arc storage once: every
// caller knows the count (or an upper bound) from its graph.
package maxflow

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// Cap is an arc capacity: either a finite non-negative rational or +∞.
type Cap struct {
	v   numeric.Rat
	inf bool
}

// Finite returns a finite capacity. It panics if r < 0.
func Finite(r numeric.Rat) Cap {
	if r.Sign() < 0 {
		panic("maxflow: negative capacity")
	}
	return Cap{v: r}
}

// Inf is the infinite capacity.
var Inf = Cap{inf: true}

// IsInf reports whether c is infinite.
func (c Cap) IsInf() bool { return c.inf }

// Value returns the finite value of c; it panics on Inf.
func (c Cap) Value() numeric.Rat {
	if c.inf {
		panic("maxflow: Value of infinite capacity")
	}
	return c.v
}

// String formats the capacity.
func (c Cap) String() string {
	if c.inf {
		return "inf"
	}
	return c.v.String()
}

// arc is half of an undirected residual pair; arcs are stored in pairs
// (i, i^1) where i^1 is the reverse arc. Its flow lives with the
// arithmetic that solved it: the fixed-width cells, or the Network's flow
// slice for the rational solvers.
type arc struct {
	to   int
	cap  numeric.Rat // solved capacity (infinities already replaced)
	inf  bool        // declared infinite by the caller
	open bool        // residual capacity left, in the last solve's arithmetic
}

// Network is a directed flow network with a distinguished source and sink.
// Build it with AddEdge, then call Solve (or a solver-specific method);
// SetCapacity changes an arc between solves.
type Network struct {
	n      int
	s, t   int
	arcs   []arc
	adj    [][]int       // arc indices leaving each node
	flow   []numeric.Rat // per-arc flow of the last rational solve, sized by prepare
	solved bool          // the flows belong to the current capacities
	fixed  bool          // the last solve ran on the fixed-width cells
	pushes int64         // elementary pushes performed by the last solve
	cells  fixedCells
	search search // Dinic's traversal state
	// inj is the fault injector cached from SolveCtx's context so the push
	// hot loop pays one nil check instead of a context lookup per push. A
	// Network serves one solve at a time (pushes is not atomic), so a plain
	// field is safe.
	inj *fault.Injector
}

// NewNetwork returns a network with n nodes, source s and sink t, with arc
// storage reserved for edges AddEdge calls. The count only sizes the
// storage: an exact count means AddEdge never reallocates, adding more
// edges than reserved still works, and arc ids, adjacency order, pushes and
// flows do not depend on it.
func NewNetwork(n, s, t, edges int) *Network {
	if n < 2 || s < 0 || s >= n || t < 0 || t >= n || s == t || edges < 0 {
		panic(fmt.Sprintf("maxflow: bad network parameters n=%d s=%d t=%d edges=%d", n, s, t, edges))
	}
	return &Network{n: n, s: s, t: t, arcs: make([]arc, 0, 2*edges), adj: make([][]int, n)}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// AddEdge adds a directed arc u → v with capacity c and returns its edge id,
// usable with Flow after solving.
func (nw *Network) AddEdge(u, v int, c Cap) int {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("maxflow: arc (%d,%d) out of range", u, v))
	}
	if nw.solved {
		panic("maxflow: AddEdge after solving")
	}
	id := len(nw.arcs)
	nw.arcs = append(nw.arcs, arc{to: v, cap: c.v, inf: c.inf})
	nw.adj[u] = append(nw.adj[u], id)
	nw.arcs = append(nw.arcs, arc{to: u})
	nw.adj[v] = append(nw.adj[v], id+1)
	return id
}

// SetCapacity replaces the capacity of the arc with the given edge id. The
// next Solve sees exactly the network AddEdge would have built with c; until
// then the previous solve's flows and cuts are no longer readable.
func (nw *Network) SetCapacity(id int, c Cap) {
	nw.checkEdge(id)
	nw.arcs[id].cap, nw.arcs[id].inf = c.v, c.inf
	nw.solved = false
}

// Flow returns the flow on the arc with the given edge id after solving.
func (nw *Network) Flow(id int) numeric.Rat {
	nw.checkEdge(id)
	if !nw.solved {
		panic("maxflow: Flow before solving")
	}
	if nw.fixed {
		return nw.cells.rat(nw.cells.flow(id))
	}
	return nw.flow[id]
}

// solvedCap returns the capacity the last solve used for arc id, Inf
// substitute included.
func (nw *Network) solvedCap(id int) numeric.Rat {
	if nw.fixed {
		return nw.cells.rat(nw.cells.cap[id])
	}
	return nw.arcs[id].cap
}

func (nw *Network) checkEdge(id int) {
	if id < 0 || id >= len(nw.arcs) || id%2 != 0 {
		panic("maxflow: bad edge id")
	}
}

// finiteBound returns a value strictly larger than the sum of all finite
// capacities; substituting it for Inf preserves max flow and finite min cuts.
func (nw *Network) finiteBound() numeric.Rat {
	total := numeric.One
	for i := 0; i < len(nw.arcs); i += 2 {
		if !nw.arcs[i].inf {
			total = total.Add(nw.arcs[i].cap)
		}
	}
	return total
}

// prepare substitutes infinite capacities and resets the rational flows.
func (nw *Network) prepare() {
	m := len(nw.arcs)
	if cap(nw.flow) < m {
		nw.flow = make([]numeric.Rat, m)
	}
	nw.flow = nw.flow[:m]
	clear(nw.flow)
	bound := nw.finiteBound()
	for i := 0; i < m; i += 2 {
		if nw.arcs[i].inf {
			nw.arcs[i].cap = bound
		}
		nw.arcs[i].open, nw.arcs[i+1].open = nw.arcs[i].cap.Sign() > 0, false
	}
}

// residual returns the residual capacity of arc id.
func (nw *Network) residual(id int) numeric.Rat {
	return nw.arcs[id].cap.Sub(nw.flow[id])
}

// hasResidual reports whether arc id has positive residual capacity in the
// arithmetic the last solve ran: a solve sets every arc's flag as it starts,
// and each push updates the two it changes.
func (nw *Network) hasResidual(id int) bool { return nw.arcs[id].open }

// push sends f along arc id (and -f along its reverse).
func (nw *Network) push(id int, f numeric.Rat) {
	nw.strike()
	nw.flow[id] = nw.flow[id].Add(f)
	nw.flow[id^1] = nw.flow[id^1].Sub(f)
	nw.arcs[id].open = nw.flow[id].Less(nw.arcs[id].cap)
	nw.arcs[id^1].open = nw.flow[id^1].Less(nw.arcs[id^1].cap)
	nw.pushes++
}

// strike arms the maxflow.push fault site, once per push in either
// arithmetic. The flow kernels cannot return errors mid-augmentation, so the
// site escalates error injections to panics (StrikePanic); the containment
// barriers up the stack convert them back into structured errors.
func (nw *Network) strike() {
	if nw.inj != nil {
		nw.inj.StrikePanic(fault.SiteMaxflowPush)
	}
}

// Pushes returns the number of elementary flow pushes performed by the most
// recent solve — a machine-independent work measure for traces and
// benchmark tables. Dinic pushes along the same paths in both arithmetics,
// so the count does not depend on which one ran.
func (nw *Network) Pushes() int64 { return nw.pushes }

// Algorithm selects a max-flow solver.
type Algorithm int

const (
	// Dinic is Dinic's blocking-flow algorithm (the default).
	Dinic Algorithm = iota
	// PushRelabel is FIFO push–relabel.
	PushRelabel
	// EdmondsKarp is the shortest-augmenting-path baseline.
	EdmondsKarp
)

// String names the algorithm for benchmark tables.
func (a Algorithm) String() string {
	switch a {
	case Dinic:
		return "dinic"
	case PushRelabel:
		return "push-relabel"
	case EdmondsKarp:
		return "edmonds-karp"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Solve computes a maximum s-t flow with the chosen algorithm and returns
// its value. The network may be re-solved; flows are reset each time.
// Dinic runs on fixed-width integer cells when the network admits them and
// on exact rationals otherwise; the other algorithms always run on
// rationals.
func (nw *Network) Solve(algo Algorithm) numeric.Rat {
	nw.pushes = 0
	nw.solved = true
	if nw.fixed = algo == Dinic && nw.cells.admit(nw); !nw.fixed {
		nw.prepare()
	}
	switch algo {
	case Dinic:
		return nw.dinic()
	case PushRelabel:
		return nw.pushRelabel()
	case EdmondsKarp:
		return nw.edmondsKarp()
	default:
		panic(fmt.Sprintf("maxflow: unknown algorithm %d", int(algo)))
	}
}

// SolveCtx is Solve with the solve recorded as a span on the context's
// trace: one "maxflow.solve" span per call, annotated with the algorithm and
// the arithmetic it ran ("fixed" or "rat"), and the network size plus the
// push count as counters. The arithmetic is also a counter of value 1 named
// "fixed" or "rat", so /metrics sums the solves of each. It also latches
// the context's fault injector (if any) onto the network for the duration
// of the solve, arming the maxflow.push site. With no span and no injector
// on the context it is exactly Solve.
func (nw *Network) SolveCtx(ctx context.Context, algo Algorithm) numeric.Rat {
	nw.inj = fault.FromContext(ctx)
	defer func() { nw.inj = nil }()
	_, sp := obs.Start(ctx, "maxflow.solve")
	if sp == nil {
		return nw.Solve(algo)
	}
	defer sp.End()
	sp.SetAttr("algo", algo.String())
	v := nw.Solve(algo)
	arith := "rat"
	if nw.fixed {
		arith = "fixed"
	}
	sp.SetAttr("arith", arith)
	sp.AddInt(arith, 1)
	sp.AddInt("nodes", int64(nw.n))
	sp.AddInt("arcs", int64(len(nw.arcs)/2))
	sp.AddInt("pushes", nw.pushes)
	return v
}

// CheckConservation verifies flow conservation and capacity constraints
// after solving, on the flows of whichever arithmetic the solve ran; it
// returns an error describing the first violation. The package's tests use
// it to audit every solver.
func (nw *Network) CheckConservation() error {
	if !nw.solved {
		return fmt.Errorf("maxflow: network not solved")
	}
	excess := make([]numeric.Rat, nw.n)
	for id := 0; id < len(nw.arcs); id += 2 {
		f, c := nw.Flow(id), nw.solvedCap(id)
		if f.Sign() < 0 {
			return fmt.Errorf("maxflow: negative flow on arc %d", id)
		}
		if f.Cmp(c) > 0 {
			return fmt.Errorf("maxflow: arc %d overfull: %v > %v", id, f, c)
		}
		u, v := nw.arcs[id^1].to, nw.arcs[id].to
		excess[u] = excess[u].Sub(f)
		excess[v] = excess[v].Add(f)
	}
	for v := 0; v < nw.n; v++ {
		if v == nw.s || v == nw.t {
			continue
		}
		if !excess[v].IsZero() {
			return fmt.Errorf("maxflow: node %d violates conservation by %v", v, excess[v])
		}
	}
	if !excess[nw.t].Equal(excess[nw.s].Neg()) {
		return fmt.Errorf("maxflow: source/sink excess mismatch: %v vs %v", excess[nw.s], excess[nw.t])
	}
	return nil
}
