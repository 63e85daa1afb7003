// Package build constructs the exact-rational certificates defined by
// internal/cert from solver answers.
//
// The builder is the trusted-side counterpart of cert.Check: it runs next
// to the solvers (re-using their decompositions and memoized split
// evaluations) and emits self-contained certificates that a dependency-free
// checker can verify without re-running anything. The only genuinely new
// computation here is the per-pair Hall-condition flow witness, obtained by
// solving the pair's bipartite demand/supply network exactly — if the
// decomposition is correct the witness always exists (LP duality), so a
// failure to saturate is reported as an error rather than papered over.
package build

import (
	"context"
	"fmt"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

// InstanceOf renders g as a certificate instance (canonical weight strings,
// sorted edge list).
func InstanceOf(g *graph.Graph) cert.Instance {
	ws := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		ws[v] = g.Weight(v).String()
	}
	return cert.Instance{N: g.N(), Weights: ws, Edges: g.Edges()}
}

// Decomposition certifies dec as the bottleneck decomposition of g: the
// cover with one Hall-condition flow witness per pair, plus the Proposition
// 6 utilities.
func Decomposition(ctx context.Context, g *graph.Graph, dec *bottleneck.Decomposition) (*cert.DecompositionCert, error) {
	c := &cert.DecompositionCert{
		Schema:   cert.SchemaDecomposition,
		Instance: InstanceOf(g),
		Pairs:    make([]cert.PairCert, 0, len(dec.Pairs)),
	}
	active := make([]bool, g.N())
	for v := range active {
		active[v] = true
	}
	wn := &witnessNet{g: g, edges: g.Edges()}
	for i := range dec.Pairs {
		p := &dec.Pairs[i]
		w, err := wn.witness(ctx, active, p.Alpha)
		if err != nil {
			return nil, fmt.Errorf("cert/build: pair %d: %w", i, err)
		}
		c.Pairs = append(c.Pairs, cert.PairCert{
			B:       append([]int(nil), p.B...),
			C:       append([]int(nil), p.C...),
			Alpha:   p.Alpha.String(),
			Witness: w,
		})
		for _, v := range p.B {
			active[v] = false
		}
		for _, v := range p.C {
			active[v] = false
		}
	}
	us := dec.Utilities(g)
	c.Utilities = make([]string, len(us))
	for v, u := range us {
		c.Utilities[v] = u.String()
	}
	return c, nil
}

// witnessNet is the Hall-witness network of one decomposition. Over the
// residual graph (the still-active vertices) a pair's witness routes α·w(v)
// out of every vertex into the supplies w(u) of its neighbors:
//
//	s → L(v) with capacity α·w(v),  L(v) → R(u) (∞) per residual edge,
//	R(u) → t with capacity w(u)
//
// The network is built once, on the first pair that needs a flow, with
// every vertex and edge in the order a per-pair build would add the active
// ones; each pair then re-sets the source capacities and gives every arc of
// a removed vertex capacity 0. A zero arc adds nothing to the fixed-width
// Dinic's common denominator or capacity sum, and no solver ever crosses
// it, so each pair's solve takes the levels, augmenting paths and pushes —
// and yields the witness — of a network holding only the active vertices.
type witnessNet struct {
	g     *graph.Graph
	edges [][2]int
	nw    *maxflow.Network
	src   []int // edge ids of s → L(v), by vertex
	snk   []int // edge ids of R(v) → t, by vertex
	arcs  []int // edge ids of L(u) → R(v) and L(v) → R(u), per edge (u, v)
}

// witness builds the Hall-condition flow witness for one pair by solving
// the residual graph's network exactly. A maximum flow saturating every
// source arc certifies w(Γ(S) ∩ V_i) ≥ α·w(S) for all subsets S; only the
// L → R flows are recorded (the checker re-derives the demand and supply
// sides).
func (wn *witnessNet) witness(ctx context.Context, active []bool, alpha numeric.Rat) ([]cert.FlowEdge, error) {
	if alpha.IsZero() {
		return nil, nil // every demand is zero; the empty witness verifies
	}
	g := wn.g
	total := numeric.Zero
	for v, a := range active {
		if a {
			total = total.Add(g.Weight(v))
		}
	}
	total = total.Mul(alpha)
	if total.IsZero() {
		return nil, nil // zero-weight residual cluster
	}
	// Node layout: 0 = source, 1 = sink, 2+v = demand side of v,
	// 2+n+v = supply side of v.
	n := g.N()
	zero := maxflow.Finite(numeric.Zero)
	if wn.nw == nil {
		wn.nw = maxflow.NewNetwork(2+2*n, 0, 1, 2*n+2*len(wn.edges))
		wn.src, wn.snk = make([]int, n), make([]int, n)
		for v := 0; v < n; v++ {
			wn.src[v] = wn.nw.AddEdge(0, 2+v, zero)
			wn.snk[v] = wn.nw.AddEdge(2+n+v, 1, zero)
		}
		wn.arcs = make([]int, 0, 2*len(wn.edges))
		for _, e := range wn.edges {
			u, v := e[0], e[1]
			wn.arcs = append(wn.arcs, wn.nw.AddEdge(2+u, 2+n+v, zero), wn.nw.AddEdge(2+v, 2+n+u, zero))
		}
	}
	for v := 0; v < n; v++ {
		src, snk := zero, zero
		if active[v] {
			src, snk = maxflow.Finite(alpha.Mul(g.Weight(v))), maxflow.Finite(g.Weight(v))
		}
		wn.nw.SetCapacity(wn.src[v], src)
		wn.nw.SetCapacity(wn.snk[v], snk)
	}
	for i, e := range wn.edges {
		c := zero
		if active[e[0]] && active[e[1]] {
			c = maxflow.Inf
		}
		wn.nw.SetCapacity(wn.arcs[2*i], c)
		wn.nw.SetCapacity(wn.arcs[2*i+1], c)
	}
	if got := wn.nw.SolveCtx(ctx, maxflow.Dinic); !got.Equal(total) {
		return nil, fmt.Errorf("cert/build: Hall witness infeasible: routed %v of demand %v (α is not a valid lower bound for this pair)", got, total)
	}
	var out []cert.FlowEdge
	for i, e := range wn.edges {
		u, v := e[0], e[1]
		if !active[u] || !active[v] {
			continue
		}
		if f := wn.nw.Flow(wn.arcs[2*i]); f.Sign() > 0 {
			out = append(out, cert.FlowEdge{From: u, To: v, Flow: f.String()})
		}
		if f := wn.nw.Flow(wn.arcs[2*i+1]); f.Sign() > 0 {
			out = append(out, cert.FlowEdge{From: v, To: u, Flow: f.String()})
		}
	}
	return out, nil
}

// Split certifies one evaluated configuration P_v(w1, w2).
func Split(ctx context.Context, ev *core.PathEval) (*cert.SplitCert, error) {
	pc, err := Decomposition(ctx, ev.Path, ev.Dec)
	if err != nil {
		return nil, err
	}
	return &cert.SplitCert{
		W1:   ev.W1.String(),
		W2:   ev.W2.String(),
		Path: *pc,
		U1:   ev.U1.String(),
		U2:   ev.U2.String(),
		U:    ev.U.String(),
	}, nil
}

// Ratio certifies a completed split optimization end to end: ring cover,
// best split, per-piece bests with exact closed forms where they reproduce
// the best value, and the breakpoint-bracket evaluations that close the
// candidate maximum. The certificate's candidate set mirrors the
// optimizer's exactly, so cert.Check's max-equality test is an identity,
// not an approximation.
//
// The best split is some piece's best, and a piece best on a piece end is
// a bracket end, so Ratio builds each distinct w1's split once and copies
// it; the copies share their slices.
func Ratio(ctx context.Context, in *core.Instance, opt *core.OptResult) (*cert.RatioCert, error) {
	ringCert, err := Decomposition(ctx, in.G, in.Dec)
	if err != nil {
		return nil, err
	}
	rc := &cert.RatioCert{
		Schema: cert.SchemaRatio,
		Ring:   *ringCert,
		V:      in.V,
		Honest: in.HonestU.String(),
		Ratio:  opt.Ratio.String(),
		LeqTwo: opt.Ratio.LessEq(numeric.Two),
	}
	best, err := Split(ctx, opt.BestEval)
	if err != nil {
		return nil, err
	}
	rc.Best = *best
	splits := map[string]*cert.SplitCert{best.W1: best}
	splitAt := func(w1 numeric.Rat) (*cert.SplitCert, error) {
		if s, ok := splits[w1.String()]; ok {
			return s, nil
		}
		ev, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			return nil, err
		}
		s, err := Split(ctx, ev)
		if err != nil {
			return nil, err
		}
		splits[s.W1] = s
		return s, nil
	}
	W := in.W()
	for i := range opt.Pieces {
		p := &opt.Pieces[i]
		pb, err := splitAt(p.BestW1)
		if err != nil {
			return nil, err
		}
		pcert := cert.PieceCert{
			Lo:        p.Lo.String(),
			Hi:        p.Hi.String(),
			Signature: p.Signature,
			SamePair:  p.SamePair,
			Best:      *pb,
		}
		mid := p.Lo.Add(p.Hi).DivInt(2)
		evMid, err := in.EvalSplitCtx(ctx, mid)
		if err != nil {
			return nil, err
		}
		if rf, ok := pieceModel(evMid, W); ok {
			if num, den, exact := rf.exactAt(p.BestW1, p.BestU); exact {
				pcert.Num, pcert.Den, pcert.FormulaExact = num, den, true
			}
		}
		rc.Pieces = append(rc.Pieces, pcert)
	}
	// The gaps between consecutive pieces are the breakpoint brackets; the
	// optimizer evaluated both endpoints of every bracket, and the checker
	// demands them, so certify each (deduplicated — a snapped bracket can
	// collapse onto a shared endpoint).
	seen := make(map[string]bool)
	for i := 0; i+1 < len(opt.Pieces); i++ {
		for _, w1 := range []numeric.Rat{opt.Pieces[i].Hi, opt.Pieces[i+1].Lo} {
			key := w1.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			bc, err := splitAt(w1)
			if err != nil {
				return nil, err
			}
			rc.Boundary = append(rc.Boundary, *bc)
		}
	}
	rc.Chain = []string{
		fmt.Sprintf("honest = U_v(ring) = %s  (ring bottleneck cover, Prop. 6)", rc.Honest),
		fmt.Sprintf("U(w1*) = U1 + U2 = %s at w1* = %s  (path bottleneck cover)", rc.Best.U, rc.Best.W1),
		fmt.Sprintf("U(w1) <= U(w1*) over %d structure pieces and %d breakpoint evaluations", len(rc.Pieces), len(rc.Boundary)),
		fmt.Sprintf("ratio = U(w1*)/honest = %s <= 2  (Theorem 8)", rc.Ratio),
	}
	return rc, nil
}

// Sweep certifies a (possibly partial) sweep result produced on in. Grid is
// the sweep's grid parameter (the result stores only the covered index
// range). Point evaluations are served from the instance's memoization when
// the certificate is built right after the sweep.
func Sweep(ctx context.Context, in *core.Instance, res *sybil.SweepResult, grid int) (*cert.SweepCert, error) {
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("cert/build: cannot certify an empty sweep")
	}
	ringCert, err := Decomposition(ctx, in.G, in.Dec)
	if err != nil {
		return nil, err
	}
	sc := &cert.SweepCert{
		Schema:    cert.SchemaSweep,
		Ring:      *ringCert,
		V:         in.V,
		Grid:      grid,
		Start:     res.Start,
		BestIndex: res.BestIndex,
		Honest:    in.HonestU.String(),
		Ratio:     res.Ratio.String(),
		LeqTwo:    res.Ratio.LessEq(numeric.Two),
		Points:    make([]cert.SplitCert, 0, len(res.Points)),
	}
	for _, p := range res.Points {
		ev, err := in.EvalSplitCtx(ctx, p.W1)
		if err != nil {
			return nil, err
		}
		s, err := Split(ctx, ev)
		if err != nil {
			return nil, err
		}
		sc.Points = append(sc.Points, *s)
	}
	sc.Chain = []string{
		fmt.Sprintf("honest = U_v(ring) = %s  (ring bottleneck cover, Prop. 6)", sc.Honest),
		fmt.Sprintf("U(w1_i) certified at %d grid points, best at index %d", len(sc.Points), sc.BestIndex),
		fmt.Sprintf("ratio = best/honest = %s <= 2  (Theorem 8)", sc.Ratio),
	}
	return sc, nil
}
