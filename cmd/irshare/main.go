// Command irshare inspects and verifies resource-sharing instances: it
// computes the bottleneck decomposition, the BD allocation, the equilibrium
// utilities, (for rings) the incentive ratio of an agent, head-to-head
// mechanism tournaments and manipulation scenarios; it drives the split
// engine over a dense sweep against its cold baseline, runs the
// proportional response dynamics, and certifies every small ring of an
// integer weight lattice.
//
// Usage:
//
//	irshare decompose  [-engine auto|flow|path-dp|brute] [-dot] [-trace] [graph args]
//	irshare allocate   [-engine e] [graph args]
//	irshare utilities  [-engine e] [graph args]
//	irshare ratio      -v <agent> [-grid N] [graph args]
//	irshare curve      -v <agent> [graph args]
//	irshare verify     [-engine e] [-v <agent>] [-grid N] [graph args]
//	irshare mechanisms
//	irshare tournament -v <agent> [-grid N] [-mechanisms a,b] [graph args]
//	irshare scenario   -kind ksybil    -v <agent> [-k N] [-grid N] [-mechanism m] [graph args]
//	irshare scenario   -kind coalition -members i,j,... [-grid N] [-mechanism m] [graph args]
//	irshare scenario   -kind topology  [-families a,b] [-count N] [-n N] [-grid N] [-seed S] [-dist d] [-mechanism m]
//	irshare sweep      [-n N] [-dist d] [-seed S] [-grid N]
//	irshare dynamics   [-rounds N] [-damping θ] [graph args]
//	irshare dynamics   -swarm [-rounds N] [-track v1,v2,...] [graph args]
//	irshare enumerate  [-min-n 3] [-max-n 6] [-levels 3] [-grid 8] [-eps 1/2]
//	                   [-workers N] [-frontier FILE] [-timeout D]
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
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/p2p"
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
		return fmt.Errorf("usage: irshare <decompose|allocate|utilities|ratio|curve|verify|mechanisms|tournament|scenario|sweep|dynamics|enumerate> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "sweep":
		return runSweep(rest, w)
	case "dynamics":
		return runDynamics(rest, w)
	case "enumerate":
		return runEnumerate(rest, w)
	case "scenario":
		return runScenario(rest, w)
	case "mechanisms":
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
	own, ok := inspectFlags[cmd]
	if !ok {
		return fmt.Errorf("unknown command %q", cmd)
	}
	all := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		engine = all.String("engine", "auto", "decomposition engine: auto|flow|path-dp|brute")
		dot    = all.Bool("dot", false, "emit Graphviz DOT colored by class")
		traceF = all.Bool("trace", false, "print solver trace events")
		agent  = all.Int("v", -1, "agent index")
		grid   = all.Int("grid", 64, "optimizer grid")
		mechs  = all.String("mechanisms", "", "comma-separated mechanism names (empty = all)")
	)
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	sel := addGraphFlags(fs)
	for _, name := range own {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	g, err := sel.load()
	if err != nil {
		return err
	}
	eng, err := bottleneck.ParseEngine(*engine)
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

	}
	return nil
}

// inspectFlags lists the flags each inspection subcommand reads, beside the
// graph flags; each is declared once, on run's all, and copied into the
// subcommand's own flag set.
var inspectFlags = map[string][]string{
	"decompose":  {"engine", "dot", "trace"},
	"allocate":   {"engine"},
	"utilities":  {"engine"},
	"curve":      {"v"},
	"verify":     {"engine", "v", "grid"},
	"ratio":      {"v", "grid"},
	"tournament": {"v", "grid", "mechanisms"},
}

// runDynamics is `irshare dynamics`: the proportional response dynamics
// (or, with -swarm, the message-passing swarm) on a graph, reported against
// the exact BD utilities they converge to.
func runDynamics(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dynamics", flag.ContinueOnError)
	sel := addGraphFlags(fs)
	var (
		rounds  = fs.Int("rounds", 10000, "maximum rounds")
		damping = fs.Float64("damping", 0, "damping θ ∈ [0,1) (recurrence only)")
		swarm   = fs.Bool("swarm", false, "run the message-passing swarm instead of the recurrence")
		track   = fs.String("track", "", "comma-separated agents to track (swarm mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *swarm && set["damping"] {
		return fmt.Errorf("dynamics: -damping applies to the recurrence, not to -swarm")
	}
	if !*swarm && set["track"] {
		return fmt.Errorf("dynamics: -track needs -swarm")
	}
	g, err := sel.load()
	if err != nil {
		return err
	}
	dec, err := bottleneck.Decompose(g)
	if err != nil {
		return err
	}
	exact := dec.Utilities(g)

	if *swarm {
		var tracked []int
		if *track != "" {
			if tracked, err = parseInts(*track); err != nil {
				return err
			}
		}
		res, err := p2p.Run(g, p2p.Config{Rounds: *rounds, TrackAgents: tracked})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "swarm: %d rounds, %d messages\n", res.Rounds, res.Messages)
		printUtilities(w, g, res.Utilities, exact)
		for i, v := range tracked {
			h := res.History[i]
			fmt.Fprintf(w, "agent %d history: first=%.6f mid=%.6f last=%.6f\n",
				v, h[0], h[len(h)/2], h[len(h)-1])
		}
		return nil
	}

	res, err := dynamics.Run(g, dynamics.Options{
		MaxRounds:       *rounds,
		Damping:         *damping,
		TargetUtilities: exact,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dynamics: %d rounds, converged=%v, final L∞ utility error %.3e\n",
		res.Rounds, res.Converged, res.FinalUtilityError())
	printUtilities(w, g, res.Utilities, exact)
	return nil
}

func printUtilities(w io.Writer, g *graph.Graph, got []float64, exact []numeric.Rat) {
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(w, "  U(%s) = %.6f (exact %s)\n", g.Label(v), got[v], exact[v])
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

// graphFlags is the graph selection shared by every subcommand that takes
// a graph.
type graphFlags struct {
	in, ring, path string
	fig1           bool
}

// addGraphFlags registers the graph-selection flags on fs.
func addGraphFlags(fs *flag.FlagSet) *graphFlags {
	sel := &graphFlags{}
	fs.StringVar(&sel.in, "in", "", "graph file in text format (\"-\" = stdin)")
	fs.StringVar(&sel.ring, "ring", "", "comma-separated ring weights")
	fs.StringVar(&sel.path, "path", "", "comma-separated path weights")
	fs.BoolVar(&sel.fig1, "fig1", false, "use the paper's Fig. 1 example")
	return sel
}

// load builds the one selected graph.
func (sel *graphFlags) load() (*graph.Graph, error) {
	selected := 0
	for _, on := range []bool{sel.in != "", sel.ring != "", sel.path != "", sel.fig1} {
		if on {
			selected++
		}
	}
	if selected != 1 {
		return nil, fmt.Errorf("select exactly one of -in, -ring, -path, -fig1")
	}
	switch {
	case sel.fig1:
		return graph.Fig1Graph(), nil
	case sel.ring != "" || sel.path != "":
		build, list := graph.Ring, sel.ring
		if sel.path != "" {
			build, list = graph.Path, sel.path
		}
		parts := strings.Split(list, ",")
		ws := make([]numeric.Rat, len(parts))
		for i, p := range parts {
			var err error
			if ws[i], err = numeric.Parse(p); err != nil {
				return nil, err
			}
		}
		return build(ws), nil
	default:
		r := os.Stdin
		if sel.in != "-" {
			f, err := os.Open(sel.in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		return graph.Read(r)
	}
}
