// Command irshare inspects resource-sharing instances: it computes the
// bottleneck decomposition, the BD allocation, the equilibrium utilities,
// (for rings) the incentive ratio of an agent, and head-to-head mechanism
// tournaments.
//
// Usage:
//
//	irshare decompose  [-engine auto|flow|path-dp|brute] [-dot] [-trace] [graph args]
//	irshare allocate   [graph args]
//	irshare utilities  [graph args]
//	irshare ratio      -v <agent> [-grid N] [graph args]
//	irshare curve      -v <agent> [graph args]
//	irshare verify     [-v <agent>] [graph args]
//	irshare mechanisms
//	irshare tournament -v <agent> [-grid N] [-mechanisms a,b] [graph args]
//	irshare scenario   -kind ksybil    -v <agent> [-k N] [-grid N] [-mechanism m] [graph args]
//	irshare scenario   -kind coalition -members i,j,... [-grid N] [-mechanism m] [graph args]
//	irshare scenario   -kind topology  [-families a,b] [-count N] [-n N] [-grid N] [-seed S] [-dist d] [-mechanism m]
//
// Graph selection (one of):
//
//	-in FILE          read the text graph format (n/w/e lines; "-" = stdin)
//	-ring w1,w2,...   build a ring with the given weights
//	-path w1,w2,...   build a path with the given weights
//	-fig1             the paper's Fig. 1 example
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/allocation"
	"repro/internal/analysis"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/scan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "irshare:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: irshare <decompose|allocate|utilities|ratio|curve|verify|mechanisms|tournament|scenario> [flags]")
	}
	cmd, rest := args[0], args[1:]
	if cmd == "mechanisms" {
		// Registry listing needs no graph; sorted order keeps output stable.
		for _, info := range mechanism.Infos() {
			def := ""
			if info.Name == mechanism.Default {
				def = " (default)"
			}
			fmt.Fprintf(w, "  %-10s cert=%-5v exact=%-5v %s%s\n",
				info.Name, info.Certifiable, info.ExactRatio, info.Description, def)
		}
		return nil
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		inFile = fs.String("in", "", "graph file in text format (\"-\" = stdin)")
		ringW  = fs.String("ring", "", "comma-separated ring weights")
		pathW  = fs.String("path", "", "comma-separated path weights")
		fig1   = fs.Bool("fig1", false, "use the paper's Fig. 1 example")
		engine = fs.String("engine", "auto", "decomposition engine: auto|flow|path-dp|brute")
		dot    = fs.Bool("dot", false, "emit Graphviz DOT colored by class")
		traceF = fs.Bool("trace", false, "print solver trace events (decompose)")
		agent  = fs.Int("v", -1, "agent index (ratio)")
		grid   = fs.Int("grid", 64, "optimizer grid (ratio)")
		mechs  = fs.String("mechanisms", "", "comma-separated mechanism names (tournament; empty = all)")
		kind   = fs.String("kind", "", "scenario kind: ksybil|coalition|topology")
		kIdent = fs.Int("k", 2, "identity count of a ksybil scan")
		membF  = fs.String("members", "", "comma-separated coalition member vertices")
		famF   = fs.String("families", "", "comma-separated topology families (empty = all)")
		countF = fs.Int("count", 4, "instances per family (topology)")
		nF     = fs.Int("n", 8, "vertices per generated instance (topology)")
		seedF  = fs.Int64("seed", 1, "instance generator seed (topology)")
		distF  = fs.String("dist", "uniform", "weight distribution: uniform|skewed|powers|unit (topology)")
		mechF  = fs.String("mechanism", "", "allocation mechanism (scenario; empty = default)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if cmd == "scenario" {
		// Topology scans generate their own instances; the other kinds take
		// the usual graph selection.
		var g *graph.Graph
		if *kind != "topology" {
			var err error
			if g, err = loadGraph(*inFile, *ringW, *pathW, *fig1); err != nil {
				return err
			}
		}
		return runScenario(w, g, scenarioArgs{
			kind: *kind, v: *agent, k: *kIdent, grid: *grid, members: *membF,
			families: *famF, count: *countF, n: *nF, seed: *seedF, dist: *distF,
			mech: *mechF,
		})
	}
	g, err := loadGraph(*inFile, *ringW, *pathW, *fig1)
	if err != nil {
		return err
	}
	eng, err := parseEngine(*engine)
	if err != nil {
		return err
	}

	switch cmd {
	case "decompose":
		ctx := context.Background()
		var tr *obs.Trace
		if *traceF {
			tr = obs.NewTrace("irshare.decompose")
			ctx = tr.Context(ctx)
		}
		d, err := bottleneck.DecomposeCtx(ctx, g, eng)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.Finish()
			printTrace(w, tr.Snapshot())
		}
		if *dot {
			fmt.Fprint(w, graph.DOT(g, func(v int) string {
				switch d.ClassOf(v) {
				case bottleneck.ClassB:
					return "lightblue"
				case bottleneck.ClassC:
					return "lightsalmon"
				case bottleneck.ClassBoth:
					return "plum"
				}
				return ""
			}))
			return nil
		}
		fmt.Fprintln(w, d)
		for v := 0; v < g.N(); v++ {
			fmt.Fprintf(w, "  %s: w=%s class=%s α=%s U=%s\n",
				g.Label(v), g.Weight(v), d.ClassOf(v), d.AlphaOf(v), d.Utility(g, v))
		}
		return d.Validate(g)

	case "allocate":
		d, err := bottleneck.DecomposeWith(g, eng)
		if err != nil {
			return err
		}
		a, err := allocation.Compute(g, d)
		if err != nil {
			return err
		}
		for _, e := range g.Edges() {
			u, v := e[0], e[1]
			if a.Get(u, v).IsZero() && a.Get(v, u).IsZero() {
				continue
			}
			fmt.Fprintf(w, "  x[%s → %s] = %s, x[%s → %s] = %s\n",
				g.Label(u), g.Label(v), a.Get(u, v), g.Label(v), g.Label(u), a.Get(v, u))
		}
		return allocation.Audit(g, d, a)

	case "utilities":
		d, err := bottleneck.DecomposeWith(g, eng)
		if err != nil {
			return err
		}
		total := numeric.Zero
		for v := 0; v < g.N(); v++ {
			u := d.Utility(g, v)
			total = total.Add(u)
			fmt.Fprintf(w, "  U(%s) = %s\n", g.Label(v), u)
		}
		fmt.Fprintf(w, "  ΣU = %s (Σw = %s)\n", total, g.TotalWeight())
		return nil

	case "curve":
		// The misreport structure theory of Section III-B: U_v(x), α_v(x),
		// the interval partition of [0, w_v], and the exact Case B-3
		// crossing x* when it exists.
		if *agent < 0 {
			return fmt.Errorf("curve requires -v <agent>")
		}
		curve, err := analysis.SampleCurve(g, *agent, 16)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "misreport curve of %s (w = %s):\n", g.Label(*agent), g.Weight(*agent))
		for _, pt := range curve {
			fmt.Fprintf(w, "  x=%-12s α=%-12s class=%-4s U=%s\n", pt.X, pt.Alpha, pt.Class, pt.U)
		}
		cse, err := analysis.ClassifyAlphaCurve(curve)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Proposition 11 classification: %s\n", cse)
		if x, c, err := analysis.AlphaStar(g, *agent, 0); err == nil && c == analysis.CaseB3 {
			fmt.Fprintf(w, "exact crossing x* = %s (α_v(x*) = 1)\n", x)
		}
		ivs, err := analysis.IntervalPartition(g, *agent, 24, 44)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d structure intervals:\n", len(ivs))
		for i, iv := range ivs {
			kind := "interval"
			if iv.Lo.Equal(iv.Hi) {
				kind = "POINT"
			}
			fmt.Fprintf(w, "  %2d %s [%.6f, %.6f] %s\n", i, kind, iv.Lo.Float64(), iv.Hi.Float64(), iv.Signature)
		}
		return nil

	case "verify":
		// The full verification battery on one instance: Proposition 3
		// invariants, allocation audit, misreport monotonicity, and (for
		// rings with -v) the complete Theorem 8 stage analysis.
		pass, fail := 0, 0
		report := func(name string, err error) {
			if err != nil {
				fail++
				fmt.Fprintf(w, "  [FAIL] %s: %v\n", name, err)
				return
			}
			pass++
			fmt.Fprintf(w, "  [ok]   %s\n", name)
		}
		d, err := bottleneck.DecomposeWith(g, eng)
		if err != nil {
			return err
		}
		report("Proposition 3 (decomposition invariants)", d.Validate(g))
		a, err := allocation.Compute(g, d)
		if err != nil {
			report("BD allocation", err)
		} else {
			report("BD allocation audit (Prop. 6, conservation, symmetry)", allocation.Audit(g, d, a))
		}
		probe := *agent
		if probe < 0 {
			probe = 0
		}
		curve, err := analysis.SampleCurve(g, probe, 24)
		if err != nil {
			report("Theorem 10 sampling", err)
		} else {
			report(fmt.Sprintf("Theorem 10 (misreport monotonicity of agent %d)", probe), analysis.VerifyTheorem10(curve))
			_, cerr := analysis.ClassifyAlphaCurve(curve)
			report("Proposition 11 (α-curve shape)", cerr)
		}
		if g.IsRing() && *agent >= 0 {
			verdict, err := core.VerifyTheorem8(g, *agent, core.OptimizeOptions{Grid: *grid})
			if err != nil {
				report("Theorem 8 analysis", err)
			} else {
				for _, c := range verdict.Stages.Checks {
					if c.Pass {
						report(c.Name, nil)
					} else {
						report(c.Name, fmt.Errorf("%s", c.Detail))
					}
				}
				if verdict.LeqTwo {
					report(fmt.Sprintf("Theorem 8 bound (ζ = %.6f ≤ 2)", verdict.Ratio.Float64()), nil)
				} else {
					report("Theorem 8 bound", fmt.Errorf("ratio %v > 2", verdict.Ratio))
				}
			}
		}
		fmt.Fprintf(w, "verified: %d checks passed, %d failed\n", pass, fail)
		if fail > 0 {
			return fmt.Errorf("%d verification checks failed", fail)
		}
		return nil

	case "ratio":
		if *agent < 0 {
			return fmt.Errorf("ratio requires -v <agent>")
		}
		verdict, err := core.VerifyTheorem8(g, *agent, core.OptimizeOptions{Grid: *grid})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "agent %s: honest U = %s\n", g.Label(*agent), verdict.Instance.HonestU)
		fmt.Fprintf(w, "best split w1* = %s (of %s), attack U = %s\n",
			verdict.Opt.BestW1, verdict.Instance.W(), verdict.Opt.BestU)
		fmt.Fprintf(w, "incentive ratio ζ_v = %s ≈ %.6f (≤ 2: %v)\n",
			verdict.Ratio, verdict.Ratio.Float64(), verdict.LeqTwo)
		fmt.Fprintf(w, "initial form: %s; stage checks pass: %v\n",
			verdict.Stages.Form, verdict.Stages.AllChecksPass())
		for _, c := range verdict.Stages.Checks {
			fmt.Fprintf(w, "  [%v] %s (%s)\n", c.Pass, c.Name, c.Detail)
		}
		return nil

	case "tournament":
		// One instance, every selected mechanism: the same head-to-head
		// evaluation as POST /v1/tournament, printed as a table.
		if *agent < 0 {
			return fmt.Errorf("tournament requires -v <agent>")
		}
		var names []string
		if *mechs != "" {
			names = strings.Split(*mechs, ",")
		}
		t, err := mechanism.NewTournament([]mechanism.TournamentInstance{{G: g, V: *agent}},
			mechanism.TournamentOptions{Mechanisms: names, Grid: *grid})
		if err != nil {
			return err
		}
		cells, err := scan.Run(context.Background(), t.Scan, scan.Options[mechanism.Cell]{})
		if err != nil {
			return err
		}
		res := t.Result(cells.Points)
		fmt.Fprintf(w, "tournament: agent %s, grid %d\n", g.Label(*agent), res.Grid)
		for _, c := range res.Cells[0] {
			fmt.Fprintf(w, "  %-10s ζ = %-12s (≈ %.6f)  honest U = %-10s best w1 = %-10s efficiency = %-10s fairness = %s\n",
				c.Mechanism, c.Ratio, c.Ratio.Float64(), c.Honest, c.BestW1, c.Efficiency, c.Fairness)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printTrace prints every decomposition stage of a traced run from its
// bottleneck.stage span: the residual size, each Dinkelbach iteration's λ
// and subproblem minimum g(λ), and the extracted α. Iterations or spans
// past the trace's caps are reported as counts instead of left out.
func printTrace(w io.Writer, snap *obs.TraceSnapshot) {
	snap.Root.Walk(func(sp *obs.SpanSnapshot) {
		if sp.Name != "bottleneck.stage" {
			return
		}
		stage := sp.Attr("stage")
		fmt.Fprintf(w, "  trace: stage %s: solving residual graph of %d vertices\n", stage, sp.Counter("remaining"))
		printed := int64(0)
		for _, ev := range sp.Events {
			if ev.Name != "dinkelbach_iter" {
				continue
			}
			var lambda, value string
			for _, a := range ev.Attrs {
				switch a.Key {
				case "lambda":
					lambda = a.Value
				case "value":
					value = a.Value
				}
			}
			fmt.Fprintf(w, "  trace: stage %s: λ = %s, g(λ) = %s\n", stage, lambda, value)
			printed++
		}
		if lost := sp.Counter("iters") - printed; lost > 0 {
			fmt.Fprintf(w, "  trace: stage %s: %d more iterations dropped (at most %d events per span)\n", stage, lost, obs.DefaultMaxEvents)
		}
		fmt.Fprintf(w, "  trace: stage %s: extracted α = %s\n", stage, sp.Attr("alpha"))
	})
	if snap.DroppedSpans > 0 {
		fmt.Fprintf(w, "  trace: %d spans dropped (at most %d per trace)\n", snap.DroppedSpans, obs.DefaultMaxSpans)
	}
}

func loadGraph(inFile, ringW, pathW string, fig1 bool) (*graph.Graph, error) {
	selected := 0
	for _, on := range []bool{inFile != "", ringW != "", pathW != "", fig1} {
		if on {
			selected++
		}
	}
	if selected != 1 {
		return nil, fmt.Errorf("select exactly one of -in, -ring, -path, -fig1")
	}
	switch {
	case fig1:
		return graph.Fig1Graph(), nil
	case ringW != "":
		ws, err := parseWeights(ringW)
		if err != nil {
			return nil, err
		}
		return graph.Ring(ws), nil
	case pathW != "":
		ws, err := parseWeights(pathW)
		if err != nil {
			return nil, err
		}
		return graph.Path(ws), nil
	default:
		r := os.Stdin
		if inFile != "-" {
			f, err := os.Open(inFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		return graph.Read(r)
	}
}

func parseWeights(s string) ([]numeric.Rat, error) {
	parts := strings.Split(s, ",")
	ws := make([]numeric.Rat, len(parts))
	for i, p := range parts {
		w, err := numeric.Parse(p)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

func parseEngine(s string) (bottleneck.Engine, error) {
	switch s {
	case "auto":
		return bottleneck.EngineAuto, nil
	case "flow":
		return bottleneck.EngineFlow, nil
	case "path-dp":
		return bottleneck.EnginePathDP, nil
	case "brute":
		return bottleneck.EngineBrute, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}
