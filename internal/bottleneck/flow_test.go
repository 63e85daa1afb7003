package bottleneck

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// solvesByArith counts the maxflow.solve spans of a snapshot subtree by
// their arith attribute.
func solvesByArith(sp *obs.SpanSnapshot, into map[string]int) {
	if sp.Name == "maxflow.solve" {
		for _, a := range sp.Attrs {
			if a.Key == "arith" {
				into[a.Value]++
			}
		}
	}
	for _, c := range sp.Children {
		solvesByArith(c, into)
	}
}

// TestFlowOracleReusesNetwork drives one flowOracle through a λ sequence
// with repeats, rises and falls — including a λ whose L is past int64 but
// whose network is below the fixed-width bound, and one whose network is
// past the bound and runs on rationals — and requires every (value,
// minimizer weight), maximal set and push count to match a fresh oracle's
// at that λ. The memo must save exactly the repeated solves: value twice
// and then maximal at one λ is one max-flow, and maximal hands its set over,
// so a later call at the same λ solves again.
func TestFlowOracleReusesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.RandomConnected(rng, 10, 0.3, graph.DistUniform)
	g.MustSetWeight(3, numeric.New(7, 2)) // L = 2·(2^63−1) and 2^126 at the two tiny λ below
	past := numeric.FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 125)))
	tr := obs.NewTrace("test")
	o := graphFlowOracle(tr.Context(context.Background()), g, new(dpScratch))
	lambdas := []numeric.Rat{
		numeric.One, numeric.New(1, 2), numeric.New(1, 2), numeric.New(3, 4),
		numeric.New(1, 3), numeric.New(1, 3), numeric.New(1, math.MaxInt64), past,
		numeric.New(2, 5), numeric.New(1<<48-3, 1<<48), numeric.One, numeric.New(1, 3),
	}
	wantSolves := 0
	for i, lambda := range lambdas {
		wantSolves++
		fresh := graphFlowOracle(context.Background(), g, new(dpScratch))
		val, wS := o.value(lambda)
		again, wAgain := o.value(lambda)
		wantVal, wantW := fresh.value(lambda)
		if val.String() != wantVal.String() || wS.String() != wantW.String() ||
			again.String() != val.String() || wAgain.String() != wS.String() {
			t.Fatalf("λ=%v: value (%v, %v), again (%v, %v), fresh (%v, %v)", lambda, val, wS, again, wAgain, wantVal, wantW)
		}
		if o.net.nw.Pushes() != fresh.net.nw.Pushes() {
			t.Fatalf("λ=%v: %d pushes, fresh %d", lambda, o.net.nw.Pushes(), fresh.net.nw.Pushes())
		}
		S, wantS := o.maximal(lambda), fresh.maximal(lambda)
		if !equalInts(S, wantS) {
			t.Fatalf("λ=%v: maximal %v, fresh %v", lambda, S, wantS)
		}
		if i%3 == 2 {
			// A second maximal re-solves: the first one's set is the caller's.
			if len(S) > 0 {
				S[0] = -1
			}
			if again := o.maximal(lambda); !equalInts(again, wantS) || o.net.nw.Pushes() != fresh.net.nw.Pushes() {
				t.Fatalf("λ=%v: second maximal %v, want %v", lambda, again, wantS)
			}
			wantSolves++
		}
	}
	tr.Finish()
	solves := map[string]int{}
	solvesByArith(tr.Snapshot().Root, solves)
	if solves["fixed"]+solves["rat"] != wantSolves || solves["rat"] != 1 {
		t.Fatalf("max-flow solves by arithmetic %v, want %d with one on rationals", solves, wantSolves)
	}
}

func equalInts(a, b []int) bool {
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
