package cert

import (
	"fmt"
	"math/big"
	"reflect"
	"sort"
)

// maxCertVertices bounds the instance size the checker accepts; it exists so
// a hostile certificate cannot demand unbounded allocation before the first
// arithmetic error is noticed.
const maxCertVertices = 1 << 16

// inst is a compiled Instance: parsed weights plus sorted adjacency.
type inst struct {
	n   int
	w   []*big.Rat
	adj [][]int
}

// compile validates the embedded instance and builds its adjacency. Edges
// must be in the canonical order (u < v, lexicographically increasing) —
// the same order the solvers' graph type emits — so instance identity stays
// textual.
func (ins *Instance) compile() (*inst, error) {
	if ins.N < 1 || ins.N > maxCertVertices {
		return nil, fmt.Errorf("cert: vertex count %d outside [1, %d]", ins.N, maxCertVertices)
	}
	if len(ins.Weights) != ins.N {
		return nil, fmt.Errorf("cert: %d weights for %d vertices", len(ins.Weights), ins.N)
	}
	out := &inst{n: ins.N, w: make([]*big.Rat, ins.N), adj: make([][]int, ins.N)}
	for v, s := range ins.Weights {
		r, err := parseNonNeg(s)
		if err != nil {
			return nil, fmt.Errorf("cert: weight[%d]: %w", v, err)
		}
		out.w[v] = r
	}
	prev := [2]int{-1, -1}
	for i, e := range ins.Edges {
		u, v := e[0], e[1]
		if u < 0 || v >= ins.N || u >= v {
			return nil, fmt.Errorf("cert: edge[%d] (%d,%d) is not a canonical in-range pair", i, u, v)
		}
		if u < prev[0] || (u == prev[0] && v <= prev[1]) {
			return nil, fmt.Errorf("cert: edge[%d] (%d,%d) out of canonical order", i, u, v)
		}
		prev = e
		out.adj[u] = append(out.adj[u], v)
		out.adj[v] = append(out.adj[v], u)
	}
	for v := range out.adj {
		sort.Ints(out.adj[v])
	}
	return out, nil
}

// hasEdge reports whether (u, v) is an edge of the compiled instance.
func (in *inst) hasEdge(u, v int) bool {
	a := in.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// checkVertexSet validates a strictly increasing in-range vertex list.
func checkVertexSet(name string, s []int, n int) error {
	for i, v := range s {
		if v < 0 || v >= n {
			return fmt.Errorf("cert: %s[%d] = %d out of range [0, %d)", name, i, v, n)
		}
		if i > 0 && v <= s[i-1] {
			return fmt.Errorf("cert: %s is not strictly increasing at index %d", name, i)
		}
	}
	return nil
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Check verifies the decomposition certificate:
//
//  1. the embedded instance is well formed and every rational is canonical,
//  2. the pairs partition the vertex set (B_i ∪ C_i disjoint across pairs,
//     self-paired B_k = C_k counted once),
//  3. extracting the pairs in order, C_i = Γ(B_i) ∩ V_i on the residual
//     graph, B_i is independent (unless self-paired), α_i = w(C_i)/w(B_i),
//     and the α chain is strictly increasing with α = 1 only at a final
//     self-pair,
//  4. every pair's Hall-condition flow witness is feasible and saturating —
//     proving min_{∅≠S⊆V_i} w(Γ(S)∩V_i)/w(S) ≥ α_i without enumerating
//     subsets — which together with (3) pins α_i as the exact bottleneck
//     value and the pair sequence as the canonical maximal decomposition,
//  5. the recorded utilities equal the Proposition 6 values derived from
//     the cover.
//
// No solver code runs: the checker re-derives everything from the
// certificate bytes with big.Rat arithmetic.
func (c *DecompositionCert) Check() error {
	if c.Schema != SchemaDecomposition {
		return fmt.Errorf("cert: schema %q, want %q", c.Schema, SchemaDecomposition)
	}
	in, err := c.Instance.compile()
	if err != nil {
		return err
	}
	if len(c.Pairs) == 0 {
		return fmt.Errorf("cert: no pairs")
	}

	// Pass 1: membership and partition.
	const (
		clsB = iota
		clsC
		clsBoth
	)
	owner := make([]int, in.n)
	class := make([]int, in.n)
	for v := range owner {
		owner[v] = -1
	}
	assign := func(v, pair, cls int) error {
		if owner[v] != -1 {
			return fmt.Errorf("cert: vertex %d assigned to pairs %d and %d", v, owner[v], pair)
		}
		owner[v], class[v] = pair, cls
		return nil
	}
	for i := range c.Pairs {
		p := &c.Pairs[i]
		if err := checkVertexSet(fmt.Sprintf("pair %d B", i), p.B, in.n); err != nil {
			return err
		}
		if err := checkVertexSet(fmt.Sprintf("pair %d C", i), p.C, in.n); err != nil {
			return err
		}
		if len(p.B) == 0 {
			return fmt.Errorf("cert: pair %d has empty B", i)
		}
		self := intsEq(p.B, p.C)
		for _, v := range p.B {
			cls := clsB
			if self {
				cls = clsBoth
			}
			if err := assign(v, i, cls); err != nil {
				return err
			}
		}
		if !self {
			for _, v := range p.C {
				if err := assign(v, i, clsC); err != nil {
					return err
				}
			}
		}
	}
	for v, o := range owner {
		if o == -1 {
			return fmt.Errorf("cert: vertex %d not covered by any pair", v)
		}
	}

	// Pass 2: sequential extraction with residual-neighborhood equality,
	// the α chain, and the flow witnesses.
	active := make([]bool, in.n)
	for v := range active {
		active[v] = true
	}
	inB := make([]bool, in.n)
	alphas := make([]*big.Rat, len(c.Pairs))
	var prev *big.Rat
	last := len(c.Pairs) - 1
	for i := range c.Pairs {
		p := &c.Pairs[i]
		self := intsEq(p.B, p.C)
		alpha, err := parseNonNeg(p.Alpha)
		if err != nil {
			return fmt.Errorf("cert: pair %d α: %w", i, err)
		}
		alphas[i] = alpha
		if alpha.Cmp(ratOne) > 0 {
			return fmt.Errorf("cert: pair %d has α = %s > 1", i, p.Alpha)
		}
		if prev != nil && alpha.Cmp(prev) <= 0 {
			return fmt.Errorf("cert: α chain not strictly increasing at pair %d", i)
		}
		prev = alpha
		if alpha.Cmp(ratOne) == 0 && !self {
			return fmt.Errorf("cert: pair %d has α = 1 but B ≠ C", i)
		}
		if self && (i != last || alpha.Cmp(ratOne) != 0) {
			return fmt.Errorf("cert: self-paired pair %d must be final with α = 1", i)
		}
		for _, v := range p.B {
			if !active[v] {
				return fmt.Errorf("cert: pair %d reuses removed vertex %d", i, v)
			}
		}
		wB, wC := new(big.Rat), new(big.Rat)
		for _, v := range p.B {
			wB.Add(wB, in.w[v])
		}
		for _, v := range p.C {
			wC.Add(wC, in.w[v])
		}
		if wB.Sign() > 0 {
			// α = w(C)/w(B) ⇔ α·w(B) = w(C), avoiding a division.
			if new(big.Rat).Mul(alpha, wB).Cmp(wC) != 0 {
				return fmt.Errorf("cert: pair %d α mismatch: α·w(B) ≠ w(C)", i)
			}
		} else if !self {
			return fmt.Errorf("cert: pair %d has zero-weight B without being a trailing self-pair", i)
		}
		// Residual neighborhood Γ(B_i) ∩ V_i.
		for _, v := range p.B {
			inB[v] = true
		}
		if self {
			// Trailing self-pair: the residual neighborhood must not escape
			// the pair (everything outside is already removed by
			// construction; internal edges are what makes α = 1 achievable).
			for _, v := range p.B {
				for _, u := range in.adj[v] {
					if active[u] && !inB[u] {
						return fmt.Errorf("cert: final self-pair %d has residual neighbor %d outside it", i, u)
					}
				}
			}
		} else {
			// B independent, and C exactly Γ(B) ∩ V_i. Together with the
			// partition from pass 1 this subsumes Proposition 3-(3)/(4): a
			// cross-pair B–B edge or a B_i → later-C_j edge would force the
			// far endpoint into C_i, clashing with its real assignment.
			nbr := make(map[int]bool)
			for _, v := range p.B {
				for _, u := range in.adj[v] {
					if inB[u] {
						return fmt.Errorf("cert: pair %d B is not independent (edge inside B at %d)", i, u)
					}
					if active[u] {
						nbr[u] = true
					}
				}
			}
			if len(nbr) != len(p.C) {
				return fmt.Errorf("cert: pair %d C has %d vertices, Γ(B)∩V_i has %d", i, len(p.C), len(nbr))
			}
			for _, u := range p.C {
				if !nbr[u] {
					return fmt.Errorf("cert: pair %d C contains %d ∉ Γ(B)∩V_i", i, u)
				}
			}
		}
		for _, v := range p.B {
			inB[v] = false
		}
		if err := in.checkWitness(active, alpha, p.Witness); err != nil {
			return fmt.Errorf("cert: pair %d: %w", i, err)
		}
		for _, v := range p.B {
			active[v] = false
		}
		for _, v := range p.C {
			active[v] = false
		}
	}

	// Pass 3: utilities.
	if len(c.Utilities) != in.n {
		return fmt.Errorf("cert: %d utilities for %d vertices", len(c.Utilities), in.n)
	}
	for v := 0; v < in.n; v++ {
		alpha := alphas[owner[v]]
		var u *big.Rat
		switch {
		case class[v] == clsBoth:
			u = in.w[v] // α = 1: w·α = w/α = w
		case class[v] == clsB:
			u = new(big.Rat).Mul(in.w[v], alpha)
		case alpha.Sign() == 0:
			u = ratZero // α = 0 pairs trade nothing
		default:
			u = new(big.Rat).Quo(in.w[v], alpha)
		}
		if ratStr(u) != c.Utilities[v] {
			return fmt.Errorf("cert: utility[%d] = %q, derived %q", v, c.Utilities[v], ratStr(u))
		}
	}
	return nil
}

// checkWitness verifies one pair's Hall-condition flow witness over the
// current residual graph: every arc connects active neighbors with a
// non-negative flow, every active vertex's outflow equals its demand
// α·w(v) exactly, and no vertex's inflow exceeds its supply w(u). A
// feasible saturating assignment certifies w(Γ(S)∩V_i) ≥ α·w(S) for every
// subset S of the residual graph — the bottleneck lower bound — by max-flow
// min-cut, without enumerating subsets.
func (in *inst) checkWitness(active []bool, alpha *big.Rat, witness []FlowEdge) error {
	out := make(map[int]*big.Rat, len(witness))
	inflow := make(map[int]*big.Rat, len(witness))
	for i, fe := range witness {
		if fe.From < 0 || fe.From >= in.n || fe.To < 0 || fe.To >= in.n {
			return fmt.Errorf("witness[%d] endpoints (%d,%d) out of range", i, fe.From, fe.To)
		}
		if !active[fe.From] || !active[fe.To] {
			return fmt.Errorf("witness[%d] touches a removed vertex", i)
		}
		if !in.hasEdge(fe.From, fe.To) {
			return fmt.Errorf("witness[%d] arc (%d,%d) is not a residual edge", i, fe.From, fe.To)
		}
		f, err := parseNonNeg(fe.Flow)
		if err != nil {
			return fmt.Errorf("witness[%d]: %w", i, err)
		}
		if acc, ok := out[fe.From]; ok {
			acc.Add(acc, f)
		} else {
			out[fe.From] = new(big.Rat).Set(f)
		}
		if acc, ok := inflow[fe.To]; ok {
			acc.Add(acc, f)
		} else {
			inflow[fe.To] = new(big.Rat).Set(f)
		}
	}
	demand := new(big.Rat)
	for v := 0; v < in.n; v++ {
		if !active[v] {
			continue
		}
		demand.Mul(alpha, in.w[v])
		got, ok := out[v]
		if !ok {
			got = ratZero
		}
		if got.Cmp(demand) != 0 {
			return fmt.Errorf("witness demand not saturated at vertex %d: routed %s, need %s",
				v, ratStr(got), ratStr(demand))
		}
	}
	for u, f := range inflow {
		if f.Cmp(in.w[u]) > 0 {
			return fmt.Errorf("witness oversubscribes vertex %d: %s > w = %s", u, ratStr(f), ratStr(in.w[u]))
		}
	}
	return nil
}

// ringCtx is the verified ring side of a ratio or sweep certificate,
// reusable across the certificate's many split checks.
type ringCtx struct {
	in    *inst
	v     int
	W     *big.Rat // attacker weight w_v
	order []int    // cyclic order starting at v, toward the lower-indexed neighbor
	// checked holds the first verified split at each W1 with its parsed
	// (U, W1), which later copies share read-only.
	checked map[string]checkedSplit
}

type checkedSplit struct {
	s     *SplitCert
	u, w1 *big.Rat
}

// newRingCtx compiles the ring instance (already certified by the caller),
// verifies it really is a ring, and fixes the split orientation: the path of
// every split is [v¹, order[1], ..., order[n-1], v²], matching the solver's
// RingOrder convention (first step toward the lower-indexed neighbor).
func newRingCtx(ring *DecompositionCert, v int) (*ringCtx, error) {
	in, err := ring.Instance.compile()
	if err != nil {
		return nil, err
	}
	if in.n < 3 {
		return nil, fmt.Errorf("cert: ring needs at least 3 vertices, got %d", in.n)
	}
	if v < 0 || v >= in.n {
		return nil, fmt.Errorf("cert: agent %d out of range [0, %d)", v, in.n)
	}
	for u := 0; u < in.n; u++ {
		if len(in.adj[u]) != 2 {
			return nil, fmt.Errorf("cert: vertex %d has degree %d, ring needs 2", u, len(in.adj[u]))
		}
	}
	order := make([]int, 0, in.n)
	seen := make([]bool, in.n)
	prev, cur := -1, v
	for len(order) < in.n {
		if seen[cur] {
			return nil, fmt.Errorf("cert: graph is not a connected ring")
		}
		seen[cur] = true
		order = append(order, cur)
		next := in.adj[cur][0]
		if next == prev {
			next = in.adj[cur][1]
		}
		prev, cur = cur, next
	}
	if cur != v {
		return nil, fmt.Errorf("cert: graph is not a connected ring")
	}
	return &ringCtx{in: in, v: v, W: in.w[v], order: order, checked: make(map[string]checkedSplit)}, nil
}

// checkSplit verifies one split certificate against the ring and returns
// its parsed (U, W1). A ratio certificate repeats splits — its best split is
// a piece's best, and a piece best on a piece end is a bracket end — so a
// split equal in every field (reflect.DeepEqual) to one already verified at
// the same W1 is accepted as that one; any other split is verified in full.
// The comparison is linear in the split's size, like its verification.
func (rc *ringCtx) checkSplit(s *SplitCert, ringWeights []string) (u, w1 *big.Rat, err error) {
	prev, seen := rc.checked[s.W1]
	if seen && reflect.DeepEqual(prev.s, s) {
		return prev.u, prev.w1, nil
	}
	if u, w1, err = rc.verifySplit(s, ringWeights); err == nil && !seen {
		rc.checked[s.W1] = checkedSplit{s: s, u: u, w1: w1}
	}
	return u, w1, err
}

// verifySplit verifies one split certificate against the ring: the embedded
// path instance must be exactly the ring cut open at v with the identity
// weights at the ends, the path decomposition certificate must check, and
// the utilities must be the path cover's values at the two identities.
func (rc *ringCtx) verifySplit(s *SplitCert, ringWeights []string) (u, w1 *big.Rat, err error) {
	w1, err = parseNonNeg(s.W1)
	if err != nil {
		return nil, nil, fmt.Errorf("cert: split w1: %w", err)
	}
	w2, err := parseNonNeg(s.W2)
	if err != nil {
		return nil, nil, fmt.Errorf("cert: split w2: %w", err)
	}
	if new(big.Rat).Add(w1, w2).Cmp(rc.W) != 0 {
		return nil, nil, fmt.Errorf("cert: split %s + %s ≠ w_v = %s", s.W1, s.W2, ratStr(rc.W))
	}
	n := rc.in.n
	p := &s.Path
	if p.Instance.N != n+1 || len(p.Instance.Weights) != n+1 {
		return nil, nil, fmt.Errorf("cert: split path has %d vertices and %d weights, want %d",
			p.Instance.N, len(p.Instance.Weights), n+1)
	}
	if p.Instance.Weights[0] != s.W1 || p.Instance.Weights[n] != s.W2 {
		return nil, nil, fmt.Errorf("cert: split path leaf weights disagree with (w1, w2)")
	}
	for i := 1; i < n; i++ {
		if p.Instance.Weights[i] != ringWeights[rc.order[i]] {
			return nil, nil, fmt.Errorf("cert: split path weight[%d] = %q, ring has %q",
				i, p.Instance.Weights[i], ringWeights[rc.order[i]])
		}
	}
	if len(p.Instance.Edges) != n {
		return nil, nil, fmt.Errorf("cert: split path has %d edges, want %d", len(p.Instance.Edges), n)
	}
	for i, e := range p.Instance.Edges {
		if e[0] != i || e[1] != i+1 {
			return nil, nil, fmt.Errorf("cert: split path edge[%d] = (%d,%d), want (%d,%d)", i, e[0], e[1], i, i+1)
		}
	}
	if err := p.Check(); err != nil {
		return nil, nil, fmt.Errorf("cert: split path: %w", err)
	}
	if s.U1 != p.Utilities[0] || s.U2 != p.Utilities[n] {
		return nil, nil, fmt.Errorf("cert: split identity utilities disagree with the path cover")
	}
	u1, err := parseNonNeg(s.U1)
	if err != nil {
		return nil, nil, err
	}
	u2, err := parseNonNeg(s.U2)
	if err != nil {
		return nil, nil, err
	}
	u = new(big.Rat).Add(u1, u2)
	if ratStr(u) != s.U {
		return nil, nil, fmt.Errorf("cert: split U = %q, want U1+U2 = %q", s.U, ratStr(u))
	}
	return u, w1, nil
}

// checkRatioRule verifies ratio = best/honest with the solvers' zero-honest
// convention, and the exact Theorem 8 comparison.
func checkRatioRule(honest, bestU *big.Rat, ratio string, leqTwo bool) error {
	r, err := parseNonNeg(ratio)
	if err != nil {
		return fmt.Errorf("cert: ratio: %w", err)
	}
	switch {
	case honest.Sign() > 0:
		// ratio = best/honest ⇔ ratio·honest = best.
		if new(big.Rat).Mul(r, honest).Cmp(bestU) != 0 {
			return fmt.Errorf("cert: ratio %s ≠ best/honest", ratio)
		}
	case bestU.Sign() > 0:
		return fmt.Errorf("cert: positive attack utility with zero honest utility")
	default:
		if r.Cmp(ratOne) != 0 {
			return fmt.Errorf("cert: zero-utility instance must record ratio 1, got %s", ratio)
		}
	}
	if r.Cmp(ratTwo) > 0 {
		return fmt.Errorf("cert: ratio %s exceeds the Theorem 8 bound 2", ratio)
	}
	if !leqTwo {
		return fmt.Errorf("cert: leq_two is false but the ratio check passed")
	}
	return nil
}

// horner evaluates a polynomial with ascending coefficients at x.
func horner(coeffs []*big.Rat, x *big.Rat) *big.Rat {
	acc := new(big.Rat)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, coeffs[i])
	}
	return acc
}

// parseCoeffs parses closed-form coefficients (any sign) with a degree cap.
func parseCoeffs(name string, ss []string, maxLen int) ([]*big.Rat, error) {
	if len(ss) == 0 || len(ss) > maxLen {
		return nil, fmt.Errorf("cert: %s has %d coefficients, want 1..%d", name, len(ss), maxLen)
	}
	out := make([]*big.Rat, len(ss))
	for i, s := range ss {
		r, err := parseRat(s)
		if err != nil {
			return nil, fmt.Errorf("cert: %s[%d]: %w", name, i, err)
		}
		out[i] = r
	}
	return out, nil
}

// Check verifies the full inequality chain of a ratio certificate:
//
//	honest  = Ring.Utilities[V]            (ring cover, flow witnesses)
//	U(w1)   ≤ Best.U  for every certified candidate — the honest split,
//	          every piece best, every breakpoint-bracket endpoint — with
//	          equality attained by Best (the optimizer's exact maximum rule)
//	Best.U  = U1 + U2 of the certified best-split path cover
//	ratio   = Best.U / honest  and  ratio ≤ 2   (Theorem 8, exact)
//
// plus the piece geometry: pieces tile [0, w_v] in order, gaps between
// consecutive pieces are bracketed by certified boundary evaluations, and
// each piece's exact closed form reproduces its best value when
// FormulaExact is set.
func (c *RatioCert) Check() error {
	if c.Schema != SchemaRatio {
		return fmt.Errorf("cert: schema %q, want %q", c.Schema, SchemaRatio)
	}
	if err := c.Ring.Check(); err != nil {
		return fmt.Errorf("cert: ring: %w", err)
	}
	rc, err := newRingCtx(&c.Ring, c.V)
	if err != nil {
		return err
	}
	if c.Honest != c.Ring.Utilities[c.V] {
		return fmt.Errorf("cert: honest = %q, ring cover says %q", c.Honest, c.Ring.Utilities[c.V])
	}
	honest, err := parseNonNeg(c.Honest)
	if err != nil {
		return err
	}
	bestU, _, err := rc.checkSplit(&c.Best, c.Ring.Instance.Weights)
	if err != nil {
		return fmt.Errorf("cert: best: %w", err)
	}

	// Candidate maximum: the honest utility is always a candidate (the
	// optimizer seeds with the honest split, whose path utility equals the
	// ring utility by Lemma 9).
	maxU := honest
	better := func(u *big.Rat) {
		if u.Cmp(maxU) > 0 {
			maxU = u
		}
	}
	var prevHi *big.Rat
	for i := range c.Pieces {
		p := &c.Pieces[i]
		lo, err := parseNonNeg(p.Lo)
		if err != nil {
			return fmt.Errorf("cert: piece %d lo: %w", i, err)
		}
		hi, err := parseNonNeg(p.Hi)
		if err != nil {
			return fmt.Errorf("cert: piece %d hi: %w", i, err)
		}
		if lo.Cmp(hi) > 0 {
			return fmt.Errorf("cert: piece %d has lo > hi", i)
		}
		if i == 0 && lo.Sign() != 0 {
			return fmt.Errorf("cert: first piece starts at %s, want 0", p.Lo)
		}
		if prevHi != nil && prevHi.Cmp(lo) > 0 {
			return fmt.Errorf("cert: piece %d overlaps its predecessor", i)
		}
		if i == len(c.Pieces)-1 && hi.Cmp(rc.W) != 0 {
			return fmt.Errorf("cert: last piece ends at %s, want w_v = %s", p.Hi, ratStr(rc.W))
		}
		prevHi = hi
		pu, pw1, err := rc.checkSplit(&p.Best, c.Ring.Instance.Weights)
		if err != nil {
			return fmt.Errorf("cert: piece %d best: %w", i, err)
		}
		if pw1.Cmp(lo) < 0 || pw1.Cmp(hi) > 0 {
			return fmt.Errorf("cert: piece %d best split %s outside [%s, %s]", i, p.Best.W1, p.Lo, p.Hi)
		}
		better(pu)
		if p.FormulaExact {
			num, err := parseCoeffs(fmt.Sprintf("piece %d num", i), p.Num, 4)
			if err != nil {
				return err
			}
			den, err := parseCoeffs(fmt.Sprintf("piece %d den", i), p.Den, 3)
			if err != nil {
				return err
			}
			dv := horner(den, pw1)
			if dv.Sign() == 0 {
				return fmt.Errorf("cert: piece %d closed form has a pole at its best split", i)
			}
			// Num(w1)/Den(w1) = U ⇔ Num(w1) = U·Den(w1).
			if horner(num, pw1).Cmp(new(big.Rat).Mul(pu, dv)) != 0 {
				return fmt.Errorf("cert: piece %d closed form does not reproduce its best value", i)
			}
		}
	}
	if len(c.Pieces) == 0 && rc.W.Sign() != 0 {
		return fmt.Errorf("cert: no pieces for a positive-weight attacker")
	}
	boundary := make(map[string]bool, len(c.Boundary))
	for i := range c.Boundary {
		bu, _, err := rc.checkSplit(&c.Boundary[i], c.Ring.Instance.Weights)
		if err != nil {
			return fmt.Errorf("cert: boundary %d: %w", i, err)
		}
		better(bu)
		boundary[c.Boundary[i].W1] = true
	}
	for i := 0; i+1 < len(c.Pieces); i++ {
		if !boundary[c.Pieces[i].Hi] || !boundary[c.Pieces[i+1].Lo] {
			return fmt.Errorf("cert: breakpoint bracket between pieces %d and %d lacks a boundary evaluation", i, i+1)
		}
	}
	if maxU.Cmp(bestU) != 0 {
		return fmt.Errorf("cert: best U = %s but the certified candidates reach %s", ratStr(bestU), ratStr(maxU))
	}
	return checkRatioRule(honest, bestU, c.Ratio, c.LeqTwo)
}

// Check verifies a sweep certificate: the ring cover, every grid point's
// split (with the grid geometry w1_i = w_v·i/Grid re-derived exactly), the
// earliest-maximum best-point rule, and the ratio rule with the exact
// Theorem 8 comparison.
func (c *SweepCert) Check() error {
	if c.Schema != SchemaSweep {
		return fmt.Errorf("cert: schema %q, want %q", c.Schema, SchemaSweep)
	}
	if err := c.Ring.Check(); err != nil {
		return fmt.Errorf("cert: ring: %w", err)
	}
	rc, err := newRingCtx(&c.Ring, c.V)
	if err != nil {
		return err
	}
	if c.Honest != c.Ring.Utilities[c.V] {
		return fmt.Errorf("cert: honest = %q, ring cover says %q", c.Honest, c.Ring.Utilities[c.V])
	}
	honest, err := parseNonNeg(c.Honest)
	if err != nil {
		return err
	}
	if c.Grid < 1 || c.Grid > maxCertVertices {
		return fmt.Errorf("cert: grid %d outside [1, %d]", c.Grid, maxCertVertices)
	}
	if c.Start < 0 || c.Start > c.Grid {
		return fmt.Errorf("cert: start %d outside [0, %d]", c.Start, c.Grid)
	}
	if len(c.Points) == 0 || c.Start+len(c.Points) > c.Grid+1 {
		return fmt.Errorf("cert: %d points from start %d overflow grid %d", len(c.Points), c.Start, c.Grid)
	}
	us := make([]*big.Rat, len(c.Points))
	gridDen := new(big.Rat).SetInt64(int64(c.Grid))
	for i := range c.Points {
		want := new(big.Rat).SetInt64(int64(c.Start + i))
		want.Quo(want.Mul(want, rc.W), gridDen)
		if c.Points[i].W1 != ratStr(want) {
			return fmt.Errorf("cert: point %d has w1 = %q, grid says %q", i, c.Points[i].W1, ratStr(want))
		}
		u, _, err := rc.checkSplit(&c.Points[i], c.Ring.Instance.Weights)
		if err != nil {
			return fmt.Errorf("cert: point %d: %w", i, err)
		}
		us[i] = u
	}
	if c.BestIndex < 0 || c.BestIndex >= len(c.Points) {
		return fmt.Errorf("cert: best_index %d outside [0, %d)", c.BestIndex, len(c.Points))
	}
	bestU := us[c.BestIndex]
	for j, u := range us {
		switch {
		case j < c.BestIndex && u.Cmp(bestU) >= 0:
			return fmt.Errorf("cert: point %d ties or beats best_index %d (earliest-maximum rule)", j, c.BestIndex)
		case u.Cmp(bestU) > 0:
			return fmt.Errorf("cert: point %d beats best_index %d", j, c.BestIndex)
		}
	}
	return checkRatioRule(honest, bestU, c.Ratio, c.LeqTwo)
}
