// Command sybilscan searches for worst-case Sybil attack instances.
//
// Modes:
//
//	sybilscan rings   [-n N] [-trials T] [-dist D] [-seed S] [-grid G] [-top K]
//	    random rings: report the K highest incentive ratios found
//	sybilscan family  [-kmax K] [-heavy H] [-grid G]
//	    sweep the lower-bound family (ratio → 2)
//	sybilscan general [-n N] [-trials T] [-seed S] [-gridres R]
//	    random general graphs with exhaustive m-split search (conjecture)
//	sybilscan sweep   [-n N] [-dist D] [-seed S] [-grid G] [-cold]
//	    dense w1 sweep on one random ring: best sampled split, incremental
//	    engine timing vs the from-scratch baseline, and solver statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sybilscan:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sybilscan <rings|family|general> [flags]")
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		n       = fs.Int("n", 9, "graph size")
		trials  = fs.Int("trials", 50, "instances to try")
		distStr = fs.String("dist", "uniform", "weight distribution: uniform|skewed|powers|unit")
		seed    = fs.Int64("seed", 1, "random seed")
		grid    = fs.Int("grid", 64, "split-optimizer grid")
		top     = fs.Int("top", 5, "how many best instances to report")
		kmax    = fs.Int("kmax", 16, "largest family index")
		heavy   = fs.String("heavy", "1000000", "heavy vertex weight")
		gridres = fs.Int("gridres", 8, "weight-simplex grid for general search")
		cold    = fs.Bool("cold", false, "sweep: disable the incremental engine (baseline timing only)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	dist, err := parseDist(*distStr)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))

	switch cmd {
	case "rings":
		type hit struct {
			ratio numeric.Rat
			ws    []numeric.Rat
			v     int
		}
		var hits []hit
		for trial := 0; trial < *trials; trial++ {
			g := graph.RandomRing(rng, *n, dist)
			v := rng.Intn(*n)
			ratio, err := core.RingRatio(g, v, core.OptimizeOptions{Grid: *grid})
			if err != nil {
				return err
			}
			if numeric.Two.Less(ratio) {
				return fmt.Errorf("THEOREM 8 VIOLATION: ratio %v on %v (v=%d)", ratio, g.Weights(), v)
			}
			hits = append(hits, hit{ratio: ratio, ws: g.Weights(), v: v})
		}
		sort.Slice(hits, func(i, j int) bool { return hits[j].ratio.Less(hits[i].ratio) })
		if *top > len(hits) {
			*top = len(hits)
		}
		fmt.Fprintf(w, "top %d of %d random %v rings (n=%d):\n", *top, *trials, dist, *n)
		for _, h := range hits[:*top] {
			fmt.Fprintf(w, "  ζ = %-10.6f v=%d w=%v\n", h.ratio.Float64(), h.v, h.ws)
		}
		return nil

	case "family":
		h, err := numeric.Parse(*heavy)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "lower-bound family: odd unit ring + heavy vertex, attacker at distance 3")
		for k := 0; k <= *kmax; k *= 2 {
			g, v, err := core.LowerBoundFamily(k, h)
			if err != nil {
				return err
			}
			ratio, err := core.RingRatio(g, v, core.OptimizeOptions{Grid: *grid})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  k=%-3d n=%-3d measured=%.6f limit=%v gap-to-2=%.6f\n",
				k, g.N(), ratio.Float64(), core.LowerBoundLimitRatio(k), 2-ratio.Float64())
			if k == 0 {
				k = 1
			}
		}
		return nil

	case "general":
		worst := numeric.One
		var worstDesc string
		for trial := 0; trial < *trials; trial++ {
			g := graph.RandomConnected(rng, *n, 0.5, dist)
			v := rng.Intn(g.N())
			if g.Degree(v) == 0 {
				continue
			}
			res, err := sybil.Search(g, v, sybil.SearchOptions{GridResolution: *gridres})
			if err != nil {
				return err
			}
			if numeric.Two.Less(res.Ratio) {
				return fmt.Errorf("CONJECTURE VIOLATION: ratio %v on %v (v=%d, %d identities)",
					res.Ratio, g.Weights(), v, len(res.Spec.Parts))
			}
			if worst.Less(res.Ratio) {
				worst = res.Ratio
				worstDesc = fmt.Sprintf("v=%d m=%d w=%v edges=%v",
					v, len(res.Spec.Parts), g.Weights(), g.Edges())
			}
		}
		fmt.Fprintf(w, "general graphs (n=%d, %d trials): worst ratio %.6f ≤ 2\n", *n, *trials, worst.Float64())
		if worstDesc != "" {
			fmt.Fprintln(w, "  argmax:", worstDesc)
		}
		return nil

	case "sweep":
		if *grid <= 0 {
			*grid = 64 // RingSweep's own default; keep the report honest
		}
		g := graph.RandomRing(rng, *n, dist)
		v := rng.Intn(*n)
		t0 := time.Now()
		sw, err := sybil.RingSweep(g, v, sybil.SweepOptions{Grid: *grid, Cold: *cold})
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		mode := "incremental"
		if *cold {
			mode = "cold"
		}
		fmt.Fprintf(w, "sweep of %d splits on a random %v ring (n=%d, v=%d, %s engine): %v\n",
			*grid+1, dist, *n, v, mode, elapsed.Round(time.Microsecond))
		fmt.Fprintf(w, "  best sampled split w1 = %v  U = %.6f  honest = %.6f  ratio = %.6f\n",
			sw.BestW1, sw.BestU.Float64(), sw.Honest.Float64(), sw.Ratio.Float64())
		st := sw.Stats.Solver
		fmt.Fprintf(w, "  solver: %d evals (%d stock fallbacks), Dinkelbach warm/cold %d/%d + %d/%d later, %d warm restarts, DP plans %d fixed-width / %d big.Int, %d Rat endpoint combinations\n",
			st.Evals, st.Fallbacks, st.Stage1Warm, st.Stage1Cold, st.LaterWarm, st.LaterCold, st.WarmRestarts,
			st.FixedPlans, st.BigPlans, st.RatCombines)
		fmt.Fprintf(w, "  caches: transfers %d hit / %d miss, tails %d hit / %d miss\n",
			st.TransferHits, st.TransferMisses, st.TailHits, st.TailMisses)
		if !*cold {
			// Re-run from scratch for an in-place before/after comparison.
			t1 := time.Now()
			cw, err := sybil.RingSweep(g, v, sybil.SweepOptions{Grid: *grid, Cold: true})
			if err != nil {
				return err
			}
			coldElapsed := time.Since(t1)
			if !cw.BestU.Equal(sw.BestU) || !cw.Ratio.Equal(sw.Ratio) {
				return fmt.Errorf("ENGINE MISMATCH: incremental (U=%v ζ=%v) vs cold (U=%v ζ=%v)",
					sw.BestU, sw.Ratio, cw.BestU, cw.Ratio)
			}
			fmt.Fprintf(w, "  cold baseline (identical results): %v  (%.1fx slower)\n",
				coldElapsed.Round(time.Microsecond), float64(coldElapsed)/float64(elapsed))
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func parseDist(s string) (graph.WeightDist, error) {
	switch s {
	case "uniform":
		return graph.DistUniform, nil
	case "skewed":
		return graph.DistSkewed, nil
	case "powers":
		return graph.DistPowers, nil
	case "unit":
		return graph.DistUnit, nil
	}
	return 0, fmt.Errorf("unknown distribution %q", s)
}
