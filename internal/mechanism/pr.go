package mechanism

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/allocation"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// PR is the iterative proportional-response backend: the Wu–Zhang dynamics
// (Definition 1 of the paper) iterated in exact rational arithmetic and
// stopped at a rational tolerance. It is the constructive counterpart of
// the fair resource-exchange equilibrium that Yan–Zhu (arXiv:1905.01670)
// compute combinatorially: the iteration converges toward the same
// equilibrium utilities, but the mechanism actually allocates the
// truncated iterate — so its fairness, efficiency, and Sybil incentive
// ratio can be compared against BD's exact equilibrium under identical
// attacks.
//
// Plain exact iteration squares denominator sizes every round, so each
// round quantizes the transfers onto the dyadic lattice {k·w_v/2^prPrec}:
// every transfer of v is rounded down to the lattice and the rounding
// remainder goes to v's last neighbor in adjacency order, keeping the row
// sums Σ_u x_vu = w_v exact. States therefore live on a finite lattice,
// the iteration is deterministic, and termination is exact: the run stops
// when the largest per-edge change is at most max_v w_v/prTolInv (or after
// prRounds rounds).
type PR struct{}

const (
	prRounds = 256     // iteration bound
	prPrec   = 24      // lattice precision in bits: transfers are multiples of w_v/2^prPrec
	prTolInv = 1 << 20 // relative termination tolerance 1/2^20
)

// prScale is 2^prPrec, the lattice's steps per unit of w_v.
var prScale = numeric.FromInt(1 << prPrec)

// Name implements Mechanism.
func (PR) Name() string { return "pr" }

// Description implements Describer.
func (PR) Description() string {
	return "exact-rational proportional-response iteration on a dyadic lattice, stopped at a rational tolerance (Wu-Zhang dynamics; cf. Yan-Zhu arXiv:1905.01670)"
}

// Certifiable implements Certifier: PR allocations are truncated iterates,
// not certified equilibria — no certificate format exists for them.
func (PR) Certifiable() bool { return false }

// Allocate implements Mechanism.
func (PR) Allocate(ctx context.Context, g *graph.Graph) (*allocation.Allocation, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("mechanism/pr: empty graph")
	}
	// x[v][j] is what v sends to its j-th neighbor (adjacency order).
	x := make([][]numeric.Rat, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		x[v] = make([]numeric.Rat, len(nb))
		if len(nb) == 0 || g.Weight(v).IsZero() {
			continue
		}
		share := g.Weight(v).DivInt(int64(len(nb)))
		for j := range nb {
			x[v][j] = share
		}
	}
	// reverse[v][j] = position of v in the adjacency list of its j-th
	// neighbor, so incoming transfers are read without search.
	reverse := make([][]int, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		reverse[v] = make([]int, len(nb))
		for j, u := range nb {
			reverse[v][j] = indexOf(g.Neighbors(u), v)
		}
	}
	wmax := numeric.MaxOf(g.Weights())
	tolAbs := wmax.DivInt(prTolInv)
	next := make([][]numeric.Rat, n)
	for v := range next {
		next[v] = make([]numeric.Rat, len(x[v]))
	}
	for round := 0; round < prRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			wv := g.Weight(v)
			if len(x[v]) == 0 || wv.IsZero() {
				continue
			}
			// r_v = Σ_u x_uv, what v received this round.
			recv := numeric.Zero
			nb := g.Neighbors(v)
			for j := range nb {
				recv = recv.Add(x[nb[j]][reverse[v][j]])
			}
			if recv.IsZero() {
				// Nothing received: keep the current split (the equal split
				// persists, matching the dynamics' convention).
				copy(next[v], x[v])
				continue
			}
			// Proportional response, quantized: all but the last neighbor
			// round down to the lattice, the last takes the remainder.
			rest := wv
			for j := range nb {
				if j == len(nb)-1 {
					next[v][j] = rest
					break
				}
				raw := x[nb[j]][reverse[v][j]].Mul(wv).Div(recv)
				q := latticeFloor(raw, wv)
				next[v][j] = q
				rest = rest.Sub(q)
			}
		}
		// Termination: largest per-edge change at most the tolerance.
		maxDelta := numeric.Zero
		for v := 0; v < n; v++ {
			for j := range x[v] {
				if d := next[v][j].Sub(x[v][j]).Abs(); maxDelta.Less(d) {
					maxDelta = d
				}
			}
		}
		x, next = next, x
		if maxDelta.LessEq(tolAbs) {
			break
		}
	}
	a := allocation.New(n)
	for v := 0; v < n; v++ {
		for j, u := range g.Neighbors(v) {
			if !x[v][j].IsZero() {
				a.Add(v, u, x[v][j])
			}
		}
	}
	return a, nil
}

// latticeFloor rounds raw ∈ [0, wv] down to the lattice {k·wv/2^prPrec}:
// floor(raw·2^prPrec/wv)·wv/2^prPrec, exactly.
func latticeFloor(raw, wv numeric.Rat) numeric.Rat {
	if raw.Sign() <= 0 {
		return numeric.Zero
	}
	// t = raw/wv·2^prPrec ≥ 0; k = ⌊t⌋ via big integer division.
	t := raw.Div(wv).Mul(prScale)
	k := new(big.Int).Quo(t.Num(), t.Denom())
	return numeric.FromBig(new(big.Rat).SetInt(k)).Mul(wv).Div(prScale)
}

// indexOf returns the position of v in nb (nb always contains v here).
func indexOf(nb []int, v int) int {
	for i, u := range nb {
		if u == v {
			return i
		}
	}
	panic("mechanism: adjacency lists out of sync")
}

func init() { Register(PR{}) }
