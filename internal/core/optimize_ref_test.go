package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// bisectCut is the referee for the breakpoint locator: phase 2's exact
// bisection plus Stern–Brocot snap as it ran inside OptimizeCtx before the
// locator replaced it, wrapped as a cutFunc. Each of its iters probes is a
// sequential exact evaluation.
func bisectCut(in *Instance, iters int) cutFunc {
	return func(bctx context.Context, lo, hi numeric.Rat, evLo, evHi *PathEval) (numeric.Rat, numeric.Rat, int, error) {
		evals := 0
		sigLo := evLo.Signature
		sigHi := evHi.Signature
		for it := 0; it < iters; it++ {
			mid := lo.Add(hi).DivInt(2)
			ev, err := in.EvalSplitCtx(bctx, mid)
			if err != nil {
				return numeric.Rat{}, numeric.Rat{}, evals, err
			}
			evals++
			if ev.Signature == sigLo {
				lo = mid
			} else {
				hi, sigHi = mid, ev.Signature
			}
		}
		if lo.Less(hi) {
			cand := numeric.SimplestBetween(lo, hi)
			ev, err := in.EvalSplitCtx(bctx, cand)
			if err != nil {
				return numeric.Rat{}, numeric.Rat{}, evals, err
			}
			evals++
			switch ev.Signature {
			case sigLo:
				lo = cand
			case sigHi:
				hi = cand
			}
		}
		return lo, hi, evals, nil
	}
}

// recordCuts wraps cut so that every bracket it returns is appended to
// *out as "lo..hi".
func recordCuts(cut cutFunc, out *[]string) cutFunc {
	return func(ctx context.Context, lo, hi numeric.Rat, evLo, evHi *PathEval) (numeric.Rat, numeric.Rat, int, error) {
		l, h, evals, err := cut(ctx, lo, hi, evLo, evHi)
		if err == nil {
			*out = append(*out, l.String()+".."+h.String())
		}
		return l, h, evals, err
	}
}

// answerOf renders every OptResult field except Evals (a work count).
func answerOf(r *OptResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "best %v u %v ratio %v at (%v, %v) sig %s\n",
		r.BestW1, r.BestU, r.Ratio, r.BestEval.W1, r.BestEval.W2, r.BestEval.Signature)
	for _, p := range r.Pieces {
		fmt.Fprintf(&b, "piece [%v, %v] %s %v %v %v %v best %v u %v\n",
			p.Lo, p.Hi, p.Signature, p.ClassV1, p.ClassV2, p.SamePair, p.FormulaOK, p.BestW1, p.BestU)
	}
	return b.String()
}

// refereeCase optimizes (g, v) with the locator (predict), then with the
// bisection referee, both at resolution iters, on the same Instance
// (evaluations are exact, so the shared cache only saves the referee work),
// and fails unless every cut and every answer field but Evals agree. It
// returns the locator's result, its optimize.breakpoints span and the
// referee's result.
func refereeCase(t testing.TB, g *graph.Graph, v int, opts OptimizeOptions, iters int, predict bracketPredictor) (*OptResult, *obs.SpanSnapshot, *OptResult) {
	t.Helper()
	opts = opts.withDefaults()
	in, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, cut func(*Instance) cutFunc) (*OptResult, []string) {
		var cuts []string
		res, err := in.optimize(ctx, opts, recordCuts(cut(in), &cuts))
		if err != nil {
			t.Fatal(err)
		}
		return res, cuts
	}
	rec := &obs.Capture{}
	tr := rec.NewTrace("locator")
	got, gotCuts := run(tr.Context(context.Background()), func(in *Instance) cutFunc {
		return breakpointLocator{in: in, iters: iters, predict: predict}.cut
	})
	tr.Finish()
	want, wantCuts := run(context.Background(), func(in *Instance) cutFunc { return bisectCut(in, iters) })
	if strings.Join(gotCuts, " ") != strings.Join(wantCuts, " ") {
		t.Fatalf("ring %v v=%d grid %d: cuts differ\nlocator   %v\nbisection %v",
			g.Weights(), v, opts.Grid, gotCuts, wantCuts)
	}
	if a, b := answerOf(got), answerOf(want); a != b {
		t.Fatalf("ring %v v=%d grid %d: answers differ\nlocator:\n%sbisection:\n%s", g.Weights(), v, opts.Grid, a, b)
	}
	return got, rec.Last().Root.Find("optimize.breakpoints"), want
}

// enumSmokeRings lists the rings of ci.sh's enumeration smoke: n = 3..6,
// integer weights in {1, 2, 3}, attacker at vertex 0, one ring per
// reflection class with gcd 1 — internal/cert/enum's reduction, restated
// because that package imports this one.
func enumSmokeRings() [][]int64 {
	var out [][]int64
	for n := 3; n <= 6; n++ {
		w := make([]int64, n)
		for i := range w {
			w[i] = 1
		}
		for {
			if canonicalRing(w) {
				out = append(out, append([]int64(nil), w...))
			}
			i := n - 1
			for ; i >= 0 && w[i] == 3; i-- {
				w[i] = 1
			}
			if i < 0 {
				break
			}
			w[i]++
		}
	}
	return out
}

func canonicalRing(w []int64) bool {
	n := len(w)
	for i := 1; i < n; i++ {
		if m := w[n-i]; w[i] != m {
			if w[i] > m {
				return false
			}
			break
		}
	}
	g := w[0]
	for _, x := range w[1:] {
		for x != 0 {
			g, x = x, g%x
		}
	}
	return g == 1
}

func TestBreakpointLocatorMatchesBisection(t *testing.T) {
	type tcase struct {
		g    *graph.Graph
		v    int
		grid int
	}
	var cases []tcase
	grids := []int{8, 16, 24, 64}
	rng := rand.New(rand.NewSource(17))
	for dist := 0; dist < 4; dist++ {
		for i, n := range []int{3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48} {
			g := graph.RandomRing(rng, n, graph.WeightDist(dist))
			for a := 0; a < 2; a++ {
				cases = append(cases, tcase{g, rng.Intn(n), grids[(i+a+dist)%len(grids)]})
			}
		}
	}
	for _, k := range []int{1, 2, 4} {
		for _, heavy := range []int64{100, 1_000_000} {
			g, v, err := LowerBoundFamily(k, numeric.FromInt(heavy))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tcase{g, v, 16}, tcase{g, v, 64})
		}
	}
	golden := []struct {
		ws []int64
		v  int
	}{{[]int64{1, 2, 3, 4, 5}, 2}, {[]int64{3, 1, 2, 1, 5}, 0}, {[]int64{93, 30, 32, 22, 56, 12}, 1}}
	for _, r := range golden {
		for _, grid := range grids {
			cases = append(cases, tcase{graph.Ring(numeric.Ints(r.ws...)), r.v, grid})
		}
	}
	for _, ws := range enumSmokeRings() {
		cases = append(cases, tcase{graph.Ring(numeric.Ints(ws...)), 0, 8})
	}

	// Chunks run in parallel: the referee spends iters sequential exact
	// evaluations on every cut.
	const chunks = 4
	var cuts, predicted [chunks]int64
	t.Run("corpus", func(t *testing.T) {
		for k := 0; k < chunks; k++ {
			t.Run(strconv.Itoa(k), func(t *testing.T) {
				t.Parallel()
				for i := k; i < len(cases); i += chunks {
					c := cases[i]
					_, bp, _ := refereeCase(t, c.g, c.v, OptimizeOptions{Grid: c.grid}, bisectIters, modelBracket)
					cuts[k] += bp.Counter("breakpoints")
					predicted[k] += bp.Counter("predicted")
					if n := bp.Counter("rescans"); n != 0 {
						t.Errorf("ring %v v=%d: %d premise rescans", c.g.Weights(), c.v, n)
					}
				}
			})
		}
	})
	var allCuts, allPredicted int64
	for k := range cuts {
		allCuts += cuts[k]
		allPredicted += predicted[k]
	}
	t.Logf("%d optimizations, %d cuts, %d accepted on a prediction", len(cases), allCuts, allPredicted)
	if allCuts == 0 || 2*allPredicted < allCuts {
		t.Fatalf("only %d of %d cuts accepted on a prediction", allPredicted, allCuts)
	}
}

// TestBreakpointLocatorRecoversFromWrongGuess hands the locator wrong
// brackets through its predictor seam. Verification must reject each one
// and the descent must still land on the referee's cut; with no guess at
// all the descent is the bisection probe for probe, so the whole run
// performs exactly the referee's evaluations.
func TestBreakpointLocatorRecoversFromWrongGuess(t *testing.T) {
	shifted := func(d int64) bracketPredictor {
		return func(evLo, evX *PathEval, lo, hi numeric.Rat, iters int) (int64, bool) {
			j, ok := modelBracket(evLo, evX, lo, hi, iters)
			if j+d < 0 || j+d >= int64(1)<<iters {
				return j - d, ok
			}
			return j + d, ok
		}
	}
	wrong := map[string]bracketPredictor{
		"none":  func(*PathEval, *PathEval, numeric.Rat, numeric.Rat, int) (int64, bool) { return 0, false },
		"first": func(*PathEval, *PathEval, numeric.Rat, numeric.Rat, int) (int64, bool) { return 0, true },
		"last": func(_, _ *PathEval, _, _ numeric.Rat, iters int) (int64, bool) {
			return int64(1)<<iters - 1, true
		},
		"left by 3":  shifted(-3),
		"right by 3": shifted(3),
	}
	rings := []struct {
		ws   []int64
		v    int
		grid int
	}{
		{[]int64{1, 2, 3, 4, 5}, 2, 8},
		{[]int64{93, 30, 32, 22, 56, 12}, 1, 16},
		{[]int64{1, 1, 1, 1, 1, 1, 1, 1, 100}, 8, 16}, // LowerBoundFamily(2, 100)
		{[]int64{7, 1, 9, 2, 13, 3, 4, 8, 1, 6}, 4, 24},
	}
	for name, predict := range wrong {
		var probes, predicted, cuts int64
		for _, r := range rings {
			g := graph.Ring(numeric.Ints(r.ws...))
			got, bp, want := refereeCase(t, g, r.v, OptimizeOptions{Grid: r.grid}, bisectIters, predict)
			probes += bp.Counter("probes")
			predicted += bp.Counter("predicted")
			cuts += bp.Counter("breakpoints")
			if name == "none" && got.Evals != want.Evals {
				t.Errorf("%s: ring %v: %d evaluations, the bisection made %d", name, r.ws, got.Evals, want.Evals)
			}
		}
		if cuts == 0 || probes == 0 || predicted == cuts {
			t.Errorf("%s: %d cuts, %d accepted on a prediction, %d probes: the descent was not exercised",
				name, cuts, predicted, probes)
		}
		if name == "none" && (predicted != 0 || probes != 48*cuts) {
			t.Errorf("none: %d cuts took %d probes and %d predictions, want 48 probes each", cuts, probes, predicted)
		}
	}
}

// TestBreakpointLocatorResolutions covers locator resolutions away from
// bisectIters: a coarse bracket, and one too fine for an int64 dyadic index,
// where the locator runs the plain descent.
func TestBreakpointLocatorResolutions(t *testing.T) {
	g := graph.Ring(numeric.Ints(93, 30, 32, 22, 56, 12))
	for _, iters := range []int{1, 5, 62, 70} {
		_, bp, _ := refereeCase(t, g, 1, OptimizeOptions{Grid: 8}, iters, modelBracket)
		if iters > 62 && bp.Counter("predicted") != 0 {
			t.Errorf("resolution %d: %d predicted cuts past the int64 index range", iters, bp.Counter("predicted"))
		}
		if iters <= 62 && bp.Counter("predicted") == 0 {
			t.Errorf("resolution %d: no cut accepted on a prediction", iters)
		}
	}
}

// TestBreakpointLocatorEvalCount checks that Evals counts evaluation
// calls, cache hits included: a hot re-run on the same Instance and a run
// on a cold Instance (cache and incremental engine off), where every
// repeated evaluation is recomputed, report the first run's answer and
// count.
func TestBreakpointLocatorEvalCount(t *testing.T) {
	g, v, err := LowerBoundFamily(2, numeric.FromInt(100))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetEvalCache(false)
	cold.SetIncremental(false)
	var answers []string
	var evals []int
	for _, in := range []*Instance{in, in, cold} {
		res, err := in.Optimize(OptimizeOptions{Grid: 16})
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answerOf(res))
		evals = append(evals, res.Evals)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i] != answers[0] || evals[i] != evals[0] {
			t.Fatalf("run %d: %d evaluations against %d\n%s\n%s", i, evals[i], evals[0], answers[i], answers[0])
		}
	}
}

// FuzzBreakpointLocator referees the locator against the bisection on
// rings whose weights mix small integers, powers of two and k/2^48 dust.
// Each input byte pair picks one weight: the first byte's low two bits the
// kind, the second the value.
func FuzzBreakpointLocator(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 2, 0, 1, 0, 5}, uint8(0), uint8(8))
	f.Add([]byte{1, 40, 0, 1, 2, 7, 0, 3, 1, 2, 0, 9}, uint8(2), uint8(16))
	f.Add([]byte{2, 255, 2, 1, 0, 1, 1, 47}, uint8(1), uint8(4))
	f.Add([]byte{0, 100, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, uint8(0), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, v, grid uint8) {
		var ws []numeric.Rat
		for i := 0; i+1 < len(data) && len(ws) < 12; i += 2 {
			b := int64(data[i+1])
			switch data[i] % 3 {
			case 0:
				ws = append(ws, numeric.FromInt(1+b%16))
			case 1:
				ws = append(ws, numeric.FromInt(int64(1)<<(b%40)))
			default:
				ws = append(ws, numeric.New(1+b, 1<<48))
			}
		}
		if len(ws) < 3 {
			t.Skip("a ring needs three vertices")
		}
		g := graph.Ring(ws)
		refereeCase(t, g, int(v)%len(ws), OptimizeOptions{Grid: 2 + int(grid)%30}, bisectIters, modelBracket)
	})
}

// TestOptimizeSpansCountBreakpoints checks the optimizer's trace: the
// optimize.breakpoints span counts predicted cuts, descent probes and
// rescans, the splitsolver.eval spans count DP plans by arithmetic, and
// both surface as /metrics span counters.
func TestOptimizeSpansCountBreakpoints(t *testing.T) {
	g, v, err := LowerBoundFamily(2, numeric.FromInt(100))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Capture{}
	tr := rec.NewTrace("optimize")
	res, err := in.OptimizeCtx(tr.Context(context.Background()), OptimizeOptions{Grid: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := rec.Last().Root
	bp := root.Find("optimize.breakpoints")
	cuts := bp.Counter("breakpoints")
	if cuts == 0 || bp.Counter("predicted") != cuts || bp.Counter("probes") != 0 || bp.Counter("rescans") != 0 {
		t.Fatalf("breakpoints span: %+v", bp.Counters)
	}
	if want := int64(len(res.Pieces) - 1); cuts != want {
		t.Fatalf("%d cuts for %d pieces", cuts, len(res.Pieces))
	}
	var fixed int64
	root.Walk(func(sp *obs.SpanSnapshot) {
		if sp.Name == "splitsolver.eval" {
			fixed += sp.Counter("fixed_plans") + sp.Counter("big_plans")
		}
	})
	if fixed == 0 {
		t.Fatal("no DP plans counted on the splitsolver.eval spans")
	}

	c := obs.NewCollector(obs.CollectorConfig{})
	tr = c.NewTrace("optimize")
	in, err = NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.OptimizeCtx(tr.Context(context.Background()), OptimizeOptions{Grid: 16}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var b strings.Builder
	c.WritePrometheus(&b, "irshared_")
	for _, key := range []string{"optimize.breakpoints/predicted", "optimize.breakpoints/probes",
		"optimize.breakpoints/rescans", "splitsolver.eval/fixed_plans", "splitsolver.eval/big_plans"} {
		if !strings.Contains(b.String(), fmt.Sprintf("irshared_span_counter_total{counter=%q}", key)) {
			t.Errorf("/metrics lacks the %s counter", key)
		}
	}
}
