// Package bottleneck computes the bottleneck decomposition of a weighted
// graph (Definition 2 of the paper, due to Wu & Zhang).
//
// For a vertex set S, α(S) = w(Γ(S)) / w(S) is its inclusive expansion
// ratio; a bottleneck is a set minimizing α, and the decomposition
// repeatedly removes the maximal bottleneck B_i together with its
// neighborhood C_i = Γ(B_i) ∩ V_i. The decomposition drives both the BD
// Allocation Mechanism (package allocation) and the entire incentive-ratio
// analysis (package core).
//
// Three engines are provided:
//
//   - EngineFlow: Dinkelbach's parametric method over max-flow min-cut
//     (works on every graph),
//   - EnginePathDP: Dinkelbach over a three-state linear dynamic program,
//     valid when every component of the (remaining) graph is a path or a
//     cycle — in particular for the rings and split paths of the paper —
//     and substantially faster,
//   - EngineBrute: exhaustive subset enumeration, the test oracle.
//
// All arithmetic is exact (package numeric), so decomposition signatures,
// α-ratios and class assignments are exact combinatorial facts, never
// floating-point guesses.
package bottleneck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// Class labels a vertex's role in the decomposition (Definition 4).
type Class int

const (
	// ClassNone marks a vertex not covered by any pair (cannot happen in a
	// completed decomposition; used as a zero value).
	ClassNone Class = iota
	// ClassB marks a vertex of some B_i with α_i < 1.
	ClassB
	// ClassC marks a vertex of some C_i with α_i < 1.
	ClassC
	// ClassBoth marks a vertex of the final pair when B_k = C_k, α_k = 1;
	// such vertices are simultaneously B class and C class.
	ClassBoth
)

// String returns "B", "C", "B=C" or "-".
func (c Class) String() string {
	switch c {
	case ClassB:
		return "B"
	case ClassC:
		return "C"
	case ClassBoth:
		return "B=C"
	}
	return "-"
}

// IsB reports whether the class counts as B class.
func (c Class) IsB() bool { return c == ClassB || c == ClassBoth }

// IsC reports whether the class counts as C class.
func (c Class) IsC() bool { return c == ClassC || c == ClassBoth }

// Pair is one bottleneck pair (B_i, C_i) with its α-ratio.
type Pair struct {
	B     []int // sorted vertex indices
	C     []int // sorted vertex indices
	Alpha numeric.Rat
}

// selfPaired reports whether the pair is of the B_k = C_k, α = 1 form.
func (p Pair) selfPaired() bool { return intsEqual(p.B, p.C) }

// String renders the pair as (B{...}, C{...}, α=...).
func (p Pair) String() string {
	var b strings.Builder
	b.WriteString("(B{")
	writeInts(&b, p.B)
	b.WriteString("}, C{")
	writeInts(&b, p.C)
	fmt.Fprintf(&b, "}, α=%s)", p.Alpha)
	return b.String()
}

func intsEqual(a, b []int) bool {
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

// Decomposition is the bottleneck decomposition of a graph, together with
// per-vertex lookups.
type Decomposition struct {
	Pairs []Pair

	class   []Class
	alpha   []numeric.Rat
	pairIdx []int
}

// finish populates the per-vertex lookup tables; pairs must already be set.
func (d *Decomposition) finish(n int) error {
	d.class = make([]Class, n)
	d.alpha = make([]numeric.Rat, n)
	d.pairIdx = make([]int, n)
	for i := range d.pairIdx {
		d.pairIdx[i] = -1
	}
	assign := func(v int, c Class, i int) error {
		if v < 0 || v >= n {
			return fmt.Errorf("bottleneck: vertex %d out of range", v)
		}
		if d.pairIdx[v] != -1 {
			return fmt.Errorf("bottleneck: vertex %d assigned to two pairs", v)
		}
		d.class[v] = c
		d.alpha[v] = d.Pairs[i].Alpha
		d.pairIdx[v] = i
		return nil
	}
	for i, p := range d.Pairs {
		if p.selfPaired() {
			for _, v := range p.B {
				if err := assign(v, ClassBoth, i); err != nil {
					return err
				}
			}
			continue
		}
		for _, v := range p.B {
			if err := assign(v, ClassB, i); err != nil {
				return err
			}
		}
		for _, v := range p.C {
			if err := assign(v, ClassC, i); err != nil {
				return err
			}
		}
	}
	for v, idx := range d.pairIdx {
		if idx == -1 {
			return fmt.Errorf("bottleneck: vertex %d not covered by any pair", v)
		}
	}
	return nil
}

// N returns the number of vertices covered.
func (d *Decomposition) N() int { return len(d.class) }

// ClassOf returns the class of v.
func (d *Decomposition) ClassOf(v int) Class { return d.class[v] }

// AlphaOf returns α_v, the α-ratio of the pair containing v.
func (d *Decomposition) AlphaOf(v int) numeric.Rat { return d.alpha[v] }

// PairIndexOf returns the index i of the pair (B_i, C_i) containing v.
func (d *Decomposition) PairIndexOf(v int) int { return d.pairIdx[v] }

// Utility returns agent v's equilibrium utility per Proposition 6:
// w_v·α_i for v ∈ B_i and w_v/α_i for v ∈ C_i (both coincide when α = 1).
func (d *Decomposition) Utility(g *graph.Graph, v int) numeric.Rat {
	a := d.alpha[v]
	switch d.class[v] {
	case ClassB:
		return g.Weight(v).Mul(a)
	case ClassC, ClassBoth:
		if a.IsZero() {
			// α = 0 pairs (isolated positive-weight vertices) trade nothing.
			return numeric.Zero
		}
		return g.Weight(v).Div(a)
	}
	return numeric.Zero
}

// Utilities returns every agent's equilibrium utility.
func (d *Decomposition) Utilities(g *graph.Graph) []numeric.Rat {
	out := make([]numeric.Rat, d.N())
	for v := range out {
		out[v] = d.Utility(g, v)
	}
	return out
}

// StructureSignature returns a canonical string identifying the
// combinatorial shape of the decomposition — the B/C sets of every pair, in
// order, without the α values. Two weight profiles lie in the same
// "interval" of the paper's Section III-B analysis exactly when their
// structure signatures agree.
func (d *Decomposition) StructureSignature() string {
	var b strings.Builder
	for _, p := range d.Pairs {
		b.WriteString("B{")
		writeInts(&b, p.B)
		b.WriteString("}C{")
		writeInts(&b, p.C)
		b.WriteString("};")
	}
	return b.String()
}

// String renders the decomposition with α values.
func (d *Decomposition) String() string {
	var b strings.Builder
	for i, p := range d.Pairs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "(B%d{", i+1)
		writeInts(&b, p.B)
		fmt.Fprintf(&b, "}, C%d{", i+1)
		writeInts(&b, p.C)
		fmt.Fprintf(&b, "}, α=%s)", p.Alpha)
	}
	return b.String()
}

func writeInts(b *strings.Builder, xs []int) {
	var buf [20]byte
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(buf[:0], int64(x), 10))
	}
}

// Alpha computes α(S) = w(Γ(S))/w(S) on g. It panics if w(S) = 0.
func Alpha(g *graph.Graph, S []int) numeric.Rat {
	ws := g.WeightOf(S)
	if ws.IsZero() {
		panic("bottleneck: α of a zero-weight set")
	}
	return g.WeightOf(g.NeighborhoodSet(S)).Div(ws)
}

// Validate checks the Proposition 3 invariants of d against g:
//
//  1. 0 < α_1 < α_2 < ... < α_k ≤ 1,
//  2. α_i = 1 only for i = k with B_k = C_k; otherwise B_i is independent
//     and B_i ∩ C_i = ∅,
//  3. no edge joins B_i and B_j for i ≠ j,
//  4. an edge between B_i and C_j implies j ≤ i,
//
// plus internal consistency: the pairs partition V, C_i = Γ(B_i) ∩ V_i and
// α_i = w(C_i)/w(B_i).
func (d *Decomposition) Validate(g *graph.Graph) error {
	if d.N() != g.N() {
		return fmt.Errorf("bottleneck: decomposition covers %d of %d vertices", d.N(), g.N())
	}
	prev := numeric.Zero
	for i, p := range d.Pairs {
		if p.Alpha.Sign() <= 0 {
			return fmt.Errorf("bottleneck: pair %d has α = %v ≤ 0", i, p.Alpha)
		}
		if i > 0 && !prev.Less(p.Alpha) {
			return fmt.Errorf("bottleneck: α not strictly increasing at pair %d (%v ≥ %v)", i, prev, p.Alpha)
		}
		prev = p.Alpha
		if p.Alpha.Cmp(numeric.One) > 0 {
			return fmt.Errorf("bottleneck: pair %d has α = %v > 1", i, p.Alpha)
		}
		if p.Alpha.Equal(numeric.One) {
			if i != len(d.Pairs)-1 {
				return fmt.Errorf("bottleneck: α = 1 at non-final pair %d", i)
			}
			if !p.selfPaired() {
				return fmt.Errorf("bottleneck: final pair has α = 1 but B ≠ C")
			}
		} else {
			if !g.IsIndependent(p.B) {
				return fmt.Errorf("bottleneck: B_%d is not independent", i)
			}
			if intersects(p.B, p.C) {
				return fmt.Errorf("bottleneck: B_%d ∩ C_%d ≠ ∅", i, i)
			}
		}
		// α_i = w(C_i)/w(B_i).
		wb := g.WeightOf(p.B)
		if wb.IsZero() {
			return fmt.Errorf("bottleneck: pair %d has zero-weight B", i)
		}
		if !g.WeightOf(p.C).Div(wb).Equal(p.Alpha) {
			return fmt.Errorf("bottleneck: pair %d α mismatch: recorded %v, computed %v",
				i, p.Alpha, g.WeightOf(p.C).Div(wb))
		}
	}
	// Pairs partition V, and C_i = Γ(B_i) within the residual graph V_i.
	removed := make([]bool, g.N())
	for i, p := range d.Pairs {
		wantC := residualNeighborhood(g, p.B, removed)
		if !intsEqual(wantC, p.C) {
			return fmt.Errorf("bottleneck: pair %d C mismatch: recorded %v, Γ(B)∩V_i = %v", i, p.C, wantC)
		}
		for _, v := range append(append([]int{}, p.B...), p.C...) {
			removed[v] = true
		}
	}
	// Prop 3-(3) and (4). ClassBoth counts as both B class and C class; edges
	// inside the final self-pair are legitimate, but an edge between pure B
	// vertices, between B vertices of different pairs (including the final
	// self-pair), or from B_i to a strictly later C_j is not.
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		cu, cv := d.class[u], d.class[v]
		iu, iv := d.pairIdx[u], d.pairIdx[v]
		if cu == ClassB && cv == ClassB {
			if iu == iv {
				return fmt.Errorf("bottleneck: edge (%d,%d) inside independent B_%d", u, v, iu)
			}
			return fmt.Errorf("bottleneck: edge (%d,%d) joins B_%d and B_%d", u, v, iu, iv)
		}
		if iu != iv && cu.IsB() && cv.IsB() {
			return fmt.Errorf("bottleneck: edge (%d,%d) joins B vertices of pairs %d and %d", u, v, iu, iv)
		}
		if cu.IsB() && cv.IsC() && iv > iu {
			return fmt.Errorf("bottleneck: edge from B_%d to later C_%d", iu, iv)
		}
		if cv.IsB() && cu.IsC() && iu > iv {
			return fmt.Errorf("bottleneck: edge from B_%d to later C_%d", iv, iu)
		}
	}
	return nil
}

// residualNeighborhood returns Γ(B) restricted to vertices not yet removed,
// in sorted order. B members themselves may appear when B has an internal
// edge (the α = 1 case).
func residualNeighborhood(g *graph.Graph, B []int, removed []bool) []int {
	seen := make(map[int]bool)
	for _, v := range B {
		for _, u := range g.Neighbors(v) {
			if !removed[u] {
				seen[u] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

func intersects(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
