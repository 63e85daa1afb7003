package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestDecomposeFig1(t *testing.T) {
	out, err := runCapture(t, "decompose", "-fig1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"α=1/3", "B1{0,1}", "class=B=C"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDecomposeDOT(t *testing.T) {
	out, err := runCapture(t, "decompose", "-fig1", "-dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "graph G {") || !strings.Contains(out, "lightblue") {
		t.Errorf("DOT output wrong:\n%s", out)
	}
}

func TestAllocateRing(t *testing.T) {
	out, err := runCapture(t, "allocate", "-ring", "1,100,1,5,5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "x[") {
		t.Errorf("no transfers printed:\n%s", out)
	}
}

func TestUtilitiesPath(t *testing.T) {
	out, err := runCapture(t, "utilities", "-path", "1,100,1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ΣU = 102") {
		t.Errorf("missing utility sum:\n%s", out)
	}
}

func TestRatioCommand(t *testing.T) {
	out, err := runCapture(t, "ratio", "-v", "3", "-grid", "16", "-ring", "100,1,1,1,1,1,1,1,1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "≤ 2: true") {
		t.Errorf("Theorem 8 verdict missing:\n%s", out)
	}
}

func TestGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(file, []byte("n 3\nw 0 1\nw 1 100\nw 2 1\ne 0 1\ne 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "utilities", "-in", file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "U(v0) = 50") {
		t.Errorf("file graph utilities wrong:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus", "-fig1"},
		{"decompose"},                            // no graph selected
		{"decompose", "-fig1", "-ring", "1,2,3"}, // two graphs selected
		{"decompose", "-fig1", "-engine", "turbo"}, // bad engine
		{"decompose", "-ring", "1,x,3"},            // bad weight
		{"ratio", "-fig1"},                         // missing -v
		{"ratio", "-v", "0", "-fig1"},              // not a ring
		{"decompose", "-in", "/nonexistent/file"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestEngineSelection(t *testing.T) {
	for _, engine := range []string{"auto", "flow", "path-dp", "brute"} {
		out, err := runCapture(t, "decompose", "-engine", engine, "-ring", "1,100,1,5,5")
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !strings.Contains(out, "α=1/50") {
			t.Errorf("engine %s output wrong:\n%s", engine, out)
		}
	}
}

func TestCurveCommand(t *testing.T) {
	out, err := runCapture(t, "curve", "-v", "0", "-ring", "8,1,1,1,1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Proposition 11 classification: Case B-3", "exact crossing x* = 2", "structure intervals"} {
		if !strings.Contains(out, want) {
			t.Errorf("curve output missing %q:\n%s", want, out)
		}
	}
}

func TestDecomposeTraceFlag(t *testing.T) {
	out, err := runCapture(t, "decompose", "-trace", "-ring", "1,100,1,5,5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace: stage 1: solving", "trace: stage 1: λ =", "trace: stage 1: extracted"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	// Stage 1's Dinkelbach iterates, in order: α(V) = 1, then 6/55, then λ*.
	at := 0
	for _, want := range []string{"stage 1: λ = 1, g(λ) = -98\n", "stage 1: λ = 6/55, g(λ) = -98/11\n", "stage 1: λ = 1/50, g(λ) = 0\n"} {
		i := strings.Index(out[at:], want)
		if i < 0 {
			t.Fatalf("trace output missing %q after offset %d:\n%s", want, at, out)
		}
		at += i + len(want)
	}
}

// TestPrintTraceReportsDroppedEvents checks that iterations past the
// per-span event cap, and spans past the per-trace cap, are reported as
// counts, not left out silently.
func TestPrintTraceReportsDroppedEvents(t *testing.T) {
	tr := obs.NewTrace("test")
	_, sp := obs.Start(tr.Context(context.Background()), "bottleneck.stage")
	sp.SetAttr("stage", "1")
	sp.AddInt("remaining", 9)
	iters := obs.DefaultMaxEvents + 5
	for i := 0; i < iters; i++ {
		sp.AddInt("iters", 1)
		sp.AddEvent("dinkelbach_iter", "lambda", "1", "value", "-1")
	}
	sp.SetAttr("alpha", "1/2")
	sp.End()
	tr.Finish()
	snap := tr.Snapshot()
	snap.DroppedSpans = 2
	var sb strings.Builder
	printTrace(&sb, snap)
	out := sb.String()
	if n := strings.Count(out, "stage 1: λ = 1, g(λ) = -1\n"); n != obs.DefaultMaxEvents {
		t.Errorf("printed %d iterations, want the %d recorded:\n%s", n, obs.DefaultMaxEvents, out)
	}
	for _, want := range []string{"stage 1: solving residual graph of 9 vertices", "stage 1: 5 more iterations dropped", "stage 1: extracted α = 1/2", "trace: 2 spans dropped"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMechanismsCommand(t *testing.T) {
	out, err := runCapture(t, "mechanisms")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bd", "(default)", "eqsplit", "pr", "cert=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("mechanisms output missing %q:\n%s", want, out)
		}
	}
	// Sorted registry order: bd before eqsplit before pr. Match names at
	// the start of their rows ("pr" also occurs inside descriptions).
	rows := "\n" + out
	if bd, eq, pr := strings.Index(rows, "\n  bd "), strings.Index(rows, "\n  eqsplit "), strings.Index(rows, "\n  pr "); bd < 0 || eq < 0 || pr < 0 || !(bd < eq && eq < pr) {
		t.Errorf("mechanisms listing not sorted:\n%s", out)
	}
}

func TestTournamentCommand(t *testing.T) {
	out, err := runCapture(t, "tournament", "-v", "0", "-grid", "16", "-ring", "3,1,2,1,5")
	if err != nil {
		t.Fatal(err)
	}
	// Exact rationals end to end: the bd row is deterministic, and on this
	// instance bd strictly beats the no-reciprocity baseline (ζ = 1).
	for _, want := range []string{"tournament: agent v0, grid 16", "ζ = 3965/3689", "eqsplit", "efficiency = 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("tournament output missing %q:\n%s", want, out)
		}
	}

	// Mechanism subset selection and its error path.
	out2, err := runCapture(t, "tournament", "-v", "0", "-grid", "8", "-mechanisms", "eqsplit", "-ring", "3,1,2,1,5")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "bd ") || !strings.Contains(out2, "eqsplit") {
		t.Errorf("tournament -mechanisms filter wrong:\n%s", out2)
	}
	if _, err := runCapture(t, "tournament", "-v", "0", "-mechanisms", "quantum", "-ring", "1,2,3"); err == nil {
		t.Error("unknown mechanism accepted")
	}
	if _, err := runCapture(t, "tournament", "-ring", "1,2,3"); err == nil {
		t.Error("tournament without -v accepted")
	}
}

func TestVerifyCommand(t *testing.T) {
	out, err := runCapture(t, "verify", "-v", "1", "-grid", "16", "-ring", "1,100,1,5,5")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "0 failed") || strings.Contains(out, "[FAIL]") {
		t.Errorf("verify output:\n%s", out)
	}
	// Non-ring graphs skip the Theorem 8 battery but still verify structure.
	out2, err := runCapture(t, "verify", "-fig1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out2)
	}
	if !strings.Contains(out2, "Proposition 3") {
		t.Errorf("verify -fig1 output:\n%s", out2)
	}
}

func TestScenarioCommand(t *testing.T) {
	out, err := runCapture(t, "scenario", "-kind", "ksybil",
		"-ring", "128,2,128,128,512,4,32", "-v", "4", "-k", "3", "-grid", "8")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"3 identities", "45 points", "incentive ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("ksybil output missing %q:\n%s", want, out)
		}
	}

	out2, err := runCapture(t, "scenario", "-kind", "coalition",
		"-ring", "128,2,128,128,512,4,32", "-members", "5,4", "-grid", "4")
	if err != nil {
		t.Fatalf("%v\n%s", err, out2)
	}
	for _, want := range []string{"members [5 4]", "joint ratio", "member v5"} {
		if !strings.Contains(out2, want) {
			t.Errorf("coalition output missing %q:\n%s", want, out2)
		}
	}

	out3, err := runCapture(t, "scenario", "-kind", "topology",
		"-families", "ring,tree", "-count", "1", "-n", "5", "-grid", "3", "-seed", "7")
	if err != nil {
		t.Fatalf("%v\n%s", err, out3)
	}
	for _, want := range []string{"topology scan: 2 instances", "ring", "tree"} {
		if !strings.Contains(out3, want) {
			t.Errorf("topology output missing %q:\n%s", want, out3)
		}
	}

	// Error paths: missing kind, unknown kind, unknown family, bad members.
	if _, err := runCapture(t, "scenario", "-ring", "1,2,3"); err == nil {
		t.Error("scenario without -kind accepted")
	}
	if _, err := runCapture(t, "scenario", "-kind", "quantum", "-ring", "1,2,3"); err == nil {
		t.Error("unknown scenario kind accepted")
	}
	if _, err := runCapture(t, "scenario", "-kind", "topology", "-families", "torus"); err == nil {
		t.Error("unknown topology family accepted")
	}
	if _, err := runCapture(t, "scenario", "-kind", "coalition", "-ring", "1,2,3", "-members", "x"); err == nil {
		t.Error("bad member list accepted")
	}
	if _, err := runCapture(t, "scenario", "-kind", "ksybil", "-ring", "1,2,3", "-v", "0", "-mechanism", "quantum"); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestSweepMode(t *testing.T) {
	out, err := runCapture(t, "sweep", "-n", "9", "-grid", "24", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sweep of 25 splits on a random uniform[1,100] ring (n=9, v=3, incremental engine)",
		"best sampled split w1 = 51/2", "solver:", "fixed-width", "whole-path passes", "caches:", "cold baseline (identical results)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	for _, args := range [][]string{
		{"sweep", "-dist", "weird"},
		{"sweep", "-n", "2"}, // too small for a ring
	} {
		if _, err := runCapture(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestDynamicsMode(t *testing.T) {
	out, err := runCapture(t, "dynamics", "-path", "1,100,2", "-rounds", "2000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dynamics:") || !strings.Contains(out, "exact 100/3") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSwarmMode(t *testing.T) {
	out, err := runCapture(t, "dynamics", "-ring", "1,7,2,9,3", "-rounds", "500", "-swarm", "-track", "0,2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "swarm:") || !strings.Contains(out, "agent 0 history") {
		t.Errorf("output:\n%s", out)
	}
}

func TestDampedDynamics(t *testing.T) {
	out, err := runCapture(t, "dynamics", "-ring", "1,7,2,9,3", "-rounds", "2000", "-damping", "0.4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dynamics:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestDynamicsErrors(t *testing.T) {
	cases := [][]string{
		{"dynamics"}, // no graph
		{"dynamics", "-ring", "1,2,3", "-path", "1,2"},                  // two graphs
		{"dynamics", "-ring", "a,b,c"},                                  // bad weights
		{"dynamics", "-ring", "1,2,3", "-damping", "1.5"},               // bad damping
		{"dynamics", "-ring", "1,2,3", "-swarm", "-track", "zz"},        // bad track list
		{"dynamics", "-ring", "1,7,2,9,3", "-swarm", "-damping", "1.5"}, // damping read by the recurrence only
		{"dynamics", "-ring", "1,2,3", "-track", "0"},                   // track read by the swarm only
		{"dynamics", "-in", "/nonexistent"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestEnumerate certifies the whole tiny lattice (rings of 3 and 4 vertices,
// weights in {1, 2}: 16 instances up to symmetry) and archives its frontier.
func TestEnumerate(t *testing.T) {
	frontier := filepath.Join(t.TempDir(), "frontier.json")
	out, err := runCapture(t, "enumerate", "-max-n", "4", "-levels", "2", "-eps", "1", "-frontier", frontier)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var sum struct {
		Instances, Certified int
		MaxRatio             string `json:"max_ratio"`
		Frontier             []struct{ Key, Ratio string }
		Elapsed              string
	}
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, out)
	}
	if sum.Instances != 16 || sum.Certified != 16 || sum.MaxRatio == "" || sum.Elapsed == "" {
		t.Fatalf("summary %+v, want 16 of 16 instances certified", sum)
	}
	data, err := os.ReadFile(frontier)
	if err != nil {
		t.Fatal(err)
	}
	var archived []struct{ Key, Ratio string }
	if err := json.Unmarshal(data, &archived); err != nil || len(archived) != len(sum.Frontier) || len(archived) == 0 {
		t.Fatalf("frontier file %s (err %v), summary frontier %v", data, err, sum.Frontier)
	}
}

// TestEnumerateErrors: a bad threshold and a run cut short by -timeout are
// errors that print no summary, partial or otherwise.
func TestEnumerateErrors(t *testing.T) {
	for _, args := range [][]string{
		{"enumerate", "-max-n", "4", "-levels", "2", "-eps", "x"},
		{"enumerate", "-max-n", "4", "-levels", "2", "-eps", "-1/2"},
		{"enumerate", "-max-n", "4", "-levels", "2", "-timeout", "1ns"},
		{"enumerate", "-max-n", "11"},
	} {
		out, err := runCapture(t, args...)
		if err == nil || out != "" {
			t.Errorf("args %v: err %v, output %q; want an error and no output", args, err, out)
		}
	}
}

// TestInspectionFlags: each inspection subcommand defines only the flags
// its case reads, beside the graph flags. Any other inspection flag is an
// error, and each of its own, given at its default, parses and leaves the
// output as it is without the flag.
func TestInspectionFlags(t *testing.T) {
	defaults := []struct{ name, value string }{
		{"engine", "auto"}, {"dot", "false"}, {"trace", "false"},
		{"v", "-1"}, {"grid", "64"}, {"mechanisms", ""},
	}
	own := map[string]string{
		"decompose":  "engine dot trace",
		"allocate":   "engine",
		"utilities":  "engine",
		"curve":      "v",
		"verify":     "engine v grid",
		"ratio":      "v grid",
		"tournament": "v grid mechanisms",
	}
	for cmd, names := range own {
		graph := []string{"-ring", "3,1,2,1,5"}
		if slices.Contains(strings.Fields(names), "v") {
			graph = append(graph, "-v", "0")
		}
		want, err := runCapture(t, append([]string{cmd}, graph...)...)
		if err != nil {
			t.Fatalf("%s %v: %v", cmd, graph, err)
		}
		for _, f := range defaults {
			arg := "-" + f.name + "=" + f.value
			// The flag goes first, so a -v 0 in graph still applies.
			got, err := runCapture(t, append([]string{cmd, arg}, graph...)...)
			switch listed := slices.Contains(strings.Fields(names), f.name); {
			case !listed && err == nil:
				t.Errorf("%s accepted the foreign flag %s", cmd, arg)
			case listed && err != nil:
				t.Errorf("%s %s: %v", cmd, arg, err)
			case listed && got != want:
				t.Errorf("%s %s changed the output:\n%s\nwant\n%s", cmd, arg, got, want)
			}
		}
	}
}
