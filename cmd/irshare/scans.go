package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/scenario"
	"repro/internal/sybil"
)

// runScenario is `irshare scenario`: one strategic-manipulation scan run
// locally — the same engines the /v1/scenario endpoint and the scenario job
// kinds run, printed as a report.
func runScenario(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	sel := addGraphFlags(fs)
	var (
		kind  = fs.String("kind", "", "scenario kind: ksybil|coalition|topology")
		agent = fs.Int("v", -1, "agent index (ksybil)")
		k     = fs.Int("k", 2, "identity count of a ksybil scan")
		grid  = fs.Int("grid", 64, "scan grid")
		membF = fs.String("members", "", "comma-separated coalition member vertices")
		famF  = fs.String("families", "", "comma-separated topology families (empty = all)")
		count = fs.Int("count", 4, "instances per family (topology)")
		n     = fs.Int("n", 8, "vertices per generated instance (topology)")
		seed  = fs.Int64("seed", 1, "instance generator seed (topology)")
		distF = fs.String("dist", "uniform", "weight distribution: uniform|skewed|powers|unit (topology)")
		mechF = fs.String("mechanism", "", "allocation mechanism (empty = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Topology scans generate their own instances; the other kinds take the
	// usual graph selection.
	var g *graph.Graph
	if *kind != "topology" {
		var err error
		if g, err = sel.load(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	m, err := mechanism.Get(*mechF)
	if err != nil {
		return err
	}
	switch *kind {
	case "ksybil":
		if *agent < 0 {
			return fmt.Errorf("ksybil requires -v <agent>")
		}
		res, err := scenario.KSybil(ctx, g, *agent, scenario.KSybilOptions{K: *k, Grid: *grid, Mechanism: m})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k-identity Sybil: agent %s splits into %d identities, grid %d (%d points)\n",
			g.Label(*agent), *k, *grid, res.Total)
		fmt.Fprintf(w, "  honest U = %s\n", res.Honest)
		fmt.Fprintf(w, "  best split c = %v (index %d), attack U = %s\n", res.BestComp, res.BestIndex, res.BestU)
		fmt.Fprintf(w, "  incentive ratio ζ = %s ≈ %.6f\n", res.Ratio, res.Ratio.Float64())
		return nil

	case "coalition":
		members, err := parseInts(*membF)
		if err != nil {
			return fmt.Errorf("bad -members: %w", err)
		}
		res, err := scenario.Coalition(ctx, g, scenario.CoalitionOptions{Members: members, Grid: *grid, Mechanism: m})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "coalition: members %v, grid %d (%d points)\n", members, *grid, res.Total)
		fmt.Fprintf(w, "  honest joint U = %s, best joint U = %s (digits %v)\n",
			res.HonestJoint, res.BestJoint, res.BestDigits)
		fmt.Fprintf(w, "  joint ratio = %s ≈ %.6f\n", res.JointRatio, res.JointRatio.Float64())
		for j, v := range members {
			fmt.Fprintf(w, "  member %-4s honest=%-12s best=%-12s gain=%-12s ratio=%s\n",
				g.Label(v), res.Honest[j], res.BestMember[j], res.Gains[j], res.MemberRatios[j])
		}
		return nil

	case "topology":
		fams := scenario.Families()
		if *famF != "" {
			fams = strings.Split(*famF, ",")
		}
		dist, err := graph.ParseWeightDist(*distF)
		if err != nil {
			return err
		}
		res, err := scenario.Topology(ctx, scenario.TopologyOptions{
			Families: fams, Count: *count, N: *n, Grid: *grid,
			Seed: *seed, Dist: dist, Mechanism: m,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "topology scan: %d instances (%d per family), n=%d, grid=%d, seed=%d\n",
			res.Total, *count, *n, *grid, *seed)
		for _, s := range res.Summaries {
			if s.Unbounded {
				fmt.Fprintf(w, "  %-10s worst instance #%d: UNBOUNDED (deviation U = %s from zero honest U)\n",
					s.Family, s.WorstIndex, s.WorstRatio)
				continue
			}
			fmt.Fprintf(w, "  %-10s worst instance #%d: ratio = %s ≈ %.6f\n",
				s.Family, s.WorstIndex, s.WorstRatio, s.WorstRatio.Float64())
		}
		return nil

	case "":
		return fmt.Errorf("scenario requires -kind ksybil|coalition|topology")
	default:
		return fmt.Errorf("unknown scenario kind %q", *kind)
	}
}

// parseInts parses a comma-separated vertex list.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// runSweep is `irshare sweep`: a dense two-identity w1 sweep of a random
// agent on a random ring, timed on the incremental split engine and re-run
// on a cold Instance (no evaluation cache, no incremental engine) that must
// give identical results, with the engine's solver and cache counters.
func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		n     = fs.Int("n", 9, "ring size")
		distF = fs.String("dist", "uniform", "weight distribution: uniform|skewed|powers|unit")
		seed  = fs.Int64("seed", 1, "random seed for the ring and the agent")
		grid  = fs.Int("grid", 64, "sweep grid (grid+1 splits)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dist, err := graph.ParseWeightDist(*distF)
	if err != nil {
		return err
	}
	if *n < 3 {
		return fmt.Errorf("a ring needs -n ≥ 3, got %d", *n)
	}
	rng := rand.New(rand.NewSource(*seed))
	g := graph.RandomRing(rng, *n, dist)
	v := rng.Intn(*n)
	ctx := context.Background()
	sweep := func(warm bool) (*sybil.SweepResult, time.Duration, error) {
		t0 := time.Now()
		sp, err := mechanism.NewSplitter(ctx, mechanism.BD{}, g, v, 2, func(ctx context.Context) (*core.Instance, error) {
			in, err := core.NewInstanceCtx(ctx, g, v)
			if err == nil {
				in.SetEvalCache(warm)
				in.SetIncremental(warm)
			}
			return in, err
		})
		if err != nil {
			return nil, 0, err
		}
		res, err := sp.Sweep(*grid).Run(ctx, sybil.SweepOptions{})
		if err != nil {
			return nil, 0, err
		}
		res.Stats = sp.Stats()
		return res, time.Since(t0), nil
	}

	sw, elapsed, err := sweep(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sweep of %d splits on a random %v ring (n=%d, v=%d, incremental engine): %v\n",
		len(sw.Points), dist, *n, v, elapsed.Round(time.Microsecond))
	fmt.Fprintf(w, "  best sampled split w1 = %v  U = %.6f  honest = %.6f  ratio = %.6f\n",
		sw.BestW1, sw.BestU.Float64(), sw.Honest.Float64(), sw.Ratio.Float64())
	st := sw.Stats.Solver
	fmt.Fprintf(w, "  solver: %d evals (%d stock fallbacks), Dinkelbach warm/cold %d/%d + %d/%d later, %d warm restarts, DP plans %d fixed-width / %d big.Int, %d whole-path passes\n",
		st.Evals, st.Fallbacks, st.Stage1Warm, st.Stage1Cold, st.LaterWarm, st.LaterCold, st.WarmRestarts,
		st.FixedPlans, st.BigPlans, st.WholePathPasses)
	fmt.Fprintf(w, "  caches: transfers %d hit / %d miss, tails %d hit / %d miss\n",
		st.TransferHits, st.TransferMisses, st.TailHits, st.TailMisses)

	cw, coldElapsed, err := sweep(false)
	if err != nil {
		return err
	}
	if !cw.BestU.Equal(sw.BestU) || !cw.Ratio.Equal(sw.Ratio) {
		return fmt.Errorf("ENGINE MISMATCH: incremental (U=%v ζ=%v) vs cold (U=%v ζ=%v)",
			sw.BestU, sw.Ratio, cw.BestU, cw.Ratio)
	}
	fmt.Fprintf(w, "  cold baseline (identical results): %v  (%.1fx slower)\n",
		coldElapsed.Round(time.Microsecond), float64(coldElapsed)/float64(elapsed))
	return nil
}
