package bottleneck

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// splitPath builds the path [w1, interior..., w2].
func splitPath(interior []numeric.Rat, w1, w2 numeric.Rat) *graph.Graph {
	ws := make([]numeric.Rat, len(interior)+2)
	ws[0] = w1
	copy(ws[1:], interior)
	ws[len(ws)-1] = w2
	return graph.Path(ws)
}

// requireDecEqual asserts two decompositions agree Rat-exactly: same pairs
// (sets and α), same signature, same per-vertex utilities on g.
func requireDecEqual(t *testing.T, g *graph.Graph, got, want *Decomposition, ctx string) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: pair count %d != %d\n got: %v\nwant: %v", ctx, len(got.Pairs), len(want.Pairs), got, want)
	}
	for i := range got.Pairs {
		gp, wp := got.Pairs[i], want.Pairs[i]
		if !intsEqual(gp.B, wp.B) || !intsEqual(gp.C, wp.C) || !gp.Alpha.Equal(wp.Alpha) {
			t.Fatalf("%s: pair %d differs\n got: %v\nwant: %v", ctx, i, gp, wp)
		}
	}
	if gs, ws := got.StructureSignature(), want.StructureSignature(); gs != ws {
		t.Fatalf("%s: signature %q != %q", ctx, gs, ws)
	}
	gu, wu := got.Utilities(g), want.Utilities(g)
	for v := range gu {
		if !gu[v].Equal(wu[v]) {
			t.Fatalf("%s: utility of %d: %v != %v", ctx, v, gu[v], wu[v])
		}
	}
}

// TestSplitSolverParityRandom is the tentpole correctness gate: across
// hundreds of random interiors and w1 samples — including bisection-style
// dust denominators, zero endpoints, and heavy equal-weight ties — the
// incremental engine must be Rat-identical to a fresh stock decomposition.
// Zero tolerance; every comparison is exact rational equality.
func TestSplitSolverParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260804))
	evals := 0
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(14) + 1 // interior length 1..14
		interior := make([]numeric.Rat, k)
		tie := rng.Intn(3) == 0 // equal-weight tie regime
		for i := range interior {
			if tie {
				interior[i] = numeric.New(int64(rng.Intn(2)+1), 1)
			} else {
				interior[i] = numeric.New(int64(rng.Intn(40)+1), int64(rng.Intn(6)+1))
			}
		}
		s := NewSplitSolver(interior)
		wv := numeric.New(int64(rng.Intn(50)+2), 1)
		for sample := 0; sample < 8; sample++ {
			var w1 numeric.Rat
			switch sample {
			case 0:
				w1 = numeric.Zero // zero endpoint: stock-fallback path
			case 1:
				w1 = wv // other endpoint zero
			case 2:
				// Bisection-style dust denominator, scaled into (0, wv).
				w1 = numeric.New(int64(rng.Intn(1<<30)+1), 1).
					Div(numeric.New(1<<31, 1)).Mul(wv)
			default:
				w1 = wv.Mul(numeric.New(int64(rng.Intn(63)+1), 64))
			}
			w2 := wv.Sub(w1)
			p := splitPath(interior, w1, w2)
			got, err := s.Eval(p, w1, w2)
			if err != nil {
				t.Fatalf("trial %d sample %d (w1=%v): %v", trial, sample, w1, err)
			}
			want, err := DecomposeWith(p, EnginePathDP)
			if err != nil {
				t.Fatalf("trial %d sample %d: stock: %v", trial, sample, err)
			}
			requireDecEqual(t, p, got, want,
				fmt.Sprintf("trial %d sample %d (interior=%v w1=%v)", trial, sample, interior, w1))
			evals++
		}
		// Re-evaluate one earlier w1 to hit the fully warm path.
		w1 := wv.Mul(numeric.New(1, 3))
		w2 := wv.Sub(w1)
		p := splitPath(interior, w1, w2)
		got, err := s.Eval(p, w1, w2)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := DecomposeWith(p, EnginePathDP)
		requireDecEqual(t, p, got, want, fmt.Sprintf("trial %d rewarm", trial))
		evals++
	}
	if evals < 200 {
		t.Fatalf("only %d parity evaluations, want ≥ 200", evals)
	}
}

// TestSplitSolverParityDenseSweep mirrors the optimizer's access pattern: a
// fine ordered sweep followed by bisection-style refinements around a
// breakpoint, all on one solver, so warm hints and tail caches are heavily
// reused before being checked against the oracle.
func TestSplitSolverParityDenseSweep(t *testing.T) {
	interior := numeric.Ints(3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
	s := NewSplitSolver(interior)
	wv := numeric.FromInt(12)
	check := func(w1 numeric.Rat, ctx string) {
		t.Helper()
		w2 := wv.Sub(w1)
		p := splitPath(interior, w1, w2)
		got, err := s.Eval(p, w1, w2)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		want, err := DecomposeWith(p, EnginePathDP)
		if err != nil {
			t.Fatalf("%s: stock: %v", ctx, err)
		}
		requireDecEqual(t, p, got, want, ctx)
	}
	for i := 0; i <= 48; i++ {
		check(wv.MulInt(int64(i)).DivInt(48), fmt.Sprintf("grid %d/48", i))
	}
	// Bisection refinement: exact midpoints down to tiny denominators.
	lo, hi := wv.MulInt(17).DivInt(48), wv.MulInt(18).DivInt(48)
	for i := 0; i < 40; i++ {
		mid := lo.Add(hi).DivInt(2)
		check(mid, fmt.Sprintf("bisect %d", i))
		if i%2 == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	st := s.Stats()
	if st.TailHits == 0 || st.TransferHits == 0 {
		t.Errorf("sweep did not exercise the caches: %+v", st)
	}
	if st.Stage1Warm == 0 {
		t.Errorf("sweep never warm-started: %+v", st)
	}
}

// TestSplitSolverTieHeavy pins the wS tie-break plumbing: constant-weight
// interiors make many subsets share the minimum cost, so any divergence
// between the transfer combine's tie handling and the stock DP shows up.
func TestSplitSolverTieHeavy(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		interior := make([]numeric.Rat, k)
		for i := range interior {
			interior[i] = numeric.One
		}
		s := NewSplitSolver(interior)
		for num := int64(1); num <= 7; num++ {
			w1 := numeric.New(num, 4)
			w2 := numeric.FromInt(2).Sub(w1)
			p := splitPath(interior, w1, w2)
			got, err := s.Eval(p, w1, w2)
			if err != nil {
				t.Fatalf("k=%d w1=%v: %v", k, w1, err)
			}
			want, _ := DecomposeWith(p, EnginePathDP)
			requireDecEqual(t, p, got, want, fmt.Sprintf("k=%d w1=%v", k, w1))
		}
	}
}

// TestSplitSolverZeroInteriorFallsBack checks that interiors containing
// zero-weight vertices route every evaluation through the stock engine
// (whose zero-attachment convention the incremental path does not model).
func TestSplitSolverZeroInteriorFallsBack(t *testing.T) {
	interior := []numeric.Rat{numeric.FromInt(2), numeric.Zero, numeric.FromInt(3)}
	s := NewSplitSolver(interior)
	w1, w2 := numeric.FromInt(1), numeric.FromInt(4)
	p := splitPath(interior, w1, w2)
	got, err := s.Eval(p, w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DecomposeWith(p, EnginePathDP)
	requireDecEqual(t, p, got, want, "zero interior")
	if st := s.Stats(); st.Fallbacks != st.Evals || st.Evals == 0 {
		t.Errorf("expected all evals to fall back: %+v", st)
	}
}

// TestSplitSolverBigRatFallsOffIntPath forces non-int64 magnitudes so the
// Rat transfer builder (not just the integer fast path) is parity-checked.
func TestSplitSolverBigRatFallsOffIntPath(t *testing.T) {
	huge := numeric.New(1, 1)
	for i := 0; i < 5; i++ {
		huge = huge.Mul(numeric.New(1<<62, 1<<62-1)) // denominator outgrows int64
	}
	interior := []numeric.Rat{
		numeric.FromInt(2).Mul(huge),
		numeric.FromInt(1).Mul(huge),
		numeric.FromInt(3).Mul(huge),
		numeric.FromInt(1).Mul(huge),
	}
	s := NewSplitSolver(interior)
	wv := numeric.FromInt(4).Mul(huge)
	for num := int64(1); num < 4; num++ {
		w1 := wv.MulInt(num).DivInt(4)
		w2 := wv.Sub(w1)
		p := splitPath(interior, w1, w2)
		got, err := s.Eval(p, w1, w2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecomposeWith(p, EnginePathDP)
		if err != nil {
			t.Fatal(err)
		}
		requireDecEqual(t, p, got, want, fmt.Sprintf("huge w1=%v", w1))
	}
}

// TestSplitSolverConcurrent hammers one solver from many goroutines over
// overlapping w1 values — the optimizer's grid phase shape — so the race
// detector can see the cache locking, and every result is still exact.
func TestSplitSolverConcurrent(t *testing.T) {
	interior := numeric.Ints(5, 2, 7, 1, 8, 2, 8, 1, 8)
	s := NewSplitSolver(interior)
	wv := numeric.FromInt(10)
	const goroutines = 8
	const per = 25
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + gi)))
			for j := 0; j < per; j++ {
				w1 := wv.MulInt(int64(rng.Intn(31) + 1)).DivInt(32)
				w2 := wv.Sub(w1)
				p := splitPath(interior, w1, w2)
				got, err := s.Eval(p, w1, w2)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", gi, err)
					return
				}
				want, err := DecomposeWith(p, EnginePathDP)
				if err != nil {
					errs <- err
					return
				}
				for i := range got.Pairs {
					if !intsEqual(got.Pairs[i].B, want.Pairs[i].B) ||
						!intsEqual(got.Pairs[i].C, want.Pairs[i].C) ||
						!got.Pairs[i].Alpha.Equal(want.Pairs[i].Alpha) {
						errs <- fmt.Errorf("goroutine %d w1=%v: pair %d differs", gi, w1, i)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSplitSolverMinimalInterior exercises the single-interior-vertex path
// (n = 3), where the transfer DP runs zero transitions and most boundary
// cells stay infeasible.
func TestSplitSolverMinimalInterior(t *testing.T) {
	for mid := int64(1); mid <= 6; mid++ {
		interior := []numeric.Rat{numeric.FromInt(mid)}
		s := NewSplitSolver(interior)
		for num := int64(1); num <= 5; num++ {
			w1 := numeric.New(num, 2)
			w2 := numeric.FromInt(3).Sub(w1)
			p := splitPath(interior, w1, w2)
			got, err := s.Eval(p, w1, w2)
			if err != nil {
				t.Fatalf("mid=%d w1=%v: %v", mid, w1, err)
			}
			want, _ := DecomposeWith(p, EnginePathDP)
			requireDecEqual(t, p, got, want, fmt.Sprintf("mid=%d w1=%v", mid, w1))
		}
	}
}

// TestSplitSolverCountsArithmeticPaths drives one solver down every
// arithmetic path — fixed-width plans with integer endpoint sums for a
// plain split, big.Int plans and the Rat combination for a split whose w1
// carries a denominator near 2^62 — and referees each answer against the
// max-flow engine, which shares no DP code.
func TestSplitSolverCountsArithmeticPaths(t *testing.T) {
	interior := numeric.Ints(5, 2, 7, 1, 8)
	s := NewSplitSolver(interior)
	wv := numeric.FromInt(4)
	var last SplitSolverStats
	for _, w1 := range []numeric.Rat{numeric.New(3, 2), numeric.New(1<<62-56, 1<<62-57)} {
		w2 := wv.Sub(w1)
		p := splitPath(interior, w1, w2)
		got, err := s.Eval(p, w1, w2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecomposeWith(p, EngineFlow)
		if err != nil {
			t.Fatal(err)
		}
		requireDecEqual(t, p, got, want, fmt.Sprintf("w1=%v", w1))
		st := s.Stats()
		t.Logf("w1=%v: %d fixed-width plans, %d big.Int plans, %d Rat combinations",
			w1, st.FixedPlans-last.FixedPlans, st.BigPlans-last.BigPlans, st.RatCombines-last.RatCombines)
		last = st
	}
	if last.FixedPlans == 0 || last.BigPlans == 0 || last.RatCombines == 0 {
		t.Fatalf("an arithmetic path went unexercised: %+v", last)
	}
}
