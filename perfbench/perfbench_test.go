package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/server"
)

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Fatalf("%d metrics in the harness, %d in BENCHMARK.json", len(c.defs), len(c.json))
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("metric %d: harness %s (%s), BENCHMARK.json %s (%s)", i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
}

// corpusOf renders every generated input of a seed: the ratio-cold
// requests, the routed-hot set and both clients' request streams, and the
// jobs-scan specs.
func corpusOf(seed int64) string {
	var ops []hotOp
	for c := 0; c < hotClients; c++ {
		s := newHotStream(seed, c)
		for i := 0; i < 200; i++ {
			ops = append(ops, s.next())
		}
	}
	cold, err := json.Marshal(coldCorpus(seed, 80))
	if err != nil {
		panic(err)
	}
	scan, err := json.Marshal(scanCorpus(seed, 40))
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s\n%+v\n%+v\n%s", cold, hotSet(seed), ops, scan)
}

func TestCorpusDependsOnlyOnSeed(t *testing.T) {
	a, b := corpusOf(7), corpusOf(7)
	if a != b {
		t.Fatal("the same seed generated different inputs")
	}
	if corpusOf(8) == a {
		t.Fatal("different seeds generated the same inputs")
	}
	// Warm-up inputs are the same for every seed; timed inputs are not.
	c7, c8 := coldCorpus(7, coldWarm+1), coldCorpus(8, coldWarm+1)
	for i := 0; i < coldWarm; i++ {
		if fmt.Sprint(c7[i]) != fmt.Sprint(c8[i]) {
			t.Fatalf("warm-up request %d depends on the seed", i)
		}
	}
	if fmt.Sprint(c7[coldWarm]) == fmt.Sprint(c8[coldWarm]) {
		t.Fatal("first timed request does not depend on the seed")
	}
}

func TestCorpusInstancesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i, r := range coldCorpus(3, 300) {
		key, err := server.PlacementKey(&r.Graph, "")
		if err != nil || seen[key] {
			t.Fatalf("request %d: duplicate or invalid ring (%v)", i, err)
		}
		seen[key] = true
		if n := len(r.Graph.Ring); n < 8 || n > 64 || r.V < 0 || r.V >= n {
			t.Fatalf("request %d: n=%d v=%d", i, n, r.V)
		}
	}
	specs := map[string]bool{}
	for i, s := range scanCorpus(3, 400) {
		raw, _ := json.Marshal(s)
		if specs[string(raw)] {
			t.Fatalf("job spec %d repeats", i)
		}
		specs[string(raw)] = true
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 100}, {19, 100}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {250000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	ladder := []float64{50, 90, 99}
	for n := 20; n <= 3000; n++ {
		p := tailPercentile(n)
		beyond := func(p float64) int { return n - int(math.Ceil(p/100*float64(n))) }
		if beyond(p) < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond(p))
		}
		for _, q := range ladder {
			if q > p && beyond(q) >= 10 {
				t.Fatalf("n=%d: p%g chosen although p%g leaves %d beyond", n, p, q, beyond(q))
			}
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Fatalf("median of 1..5 = %g", got)
	}
}

// certified returns a certified in-process answer for a small ring.
func certified(t *testing.T, req *client.RatioRequest) *client.RatioResponse {
	t.Helper()
	ctx := context.Background()
	resp, _, err := solveCold(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := req.Graph.Build()
	in, err := core.NewInstanceCtx(ctx, g, req.V)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: req.Grid})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Certificate, err = build.Ratio(ctx, in, opt); err != nil {
		t.Fatal(err)
	}
	return resp
}

// cloneCert deep-copies a certificate through its wire form.
func cloneCert(t *testing.T, c *cert.RatioCert) *cert.RatioCert {
	t.Helper()
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var out cert.RatioCert
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestGateRejectsTamperedRatioAndCertificate(t *testing.T) {
	req := client.RatioRequest{Graph: client.Graph{Ring: []string{"9", "1", "4", "7", "2", "5"}}, V: 1, Grid: 8, Cert: true}
	resp := certified(t, &req)
	ref, _, err := solveCold(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRatio(resp, ref); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}
	if err := checkCertified(&req, resp); err != nil {
		t.Fatalf("honest certificate rejected: %v", err)
	}

	bad := *resp
	bad.Ratio = "3/2"
	if sameRatio(&bad, ref) == nil {
		t.Error("tampered ratio passed the exact comparison")
	}
	if checkCertified(&req, &bad) == nil {
		t.Error("answer disagreeing with its certificate passed")
	}

	bad = *resp
	bad.Certificate = cloneCert(t, resp.Certificate)
	bad.Certificate.Best.U = "1000"
	if checkCertified(&req, &bad) == nil {
		t.Error("tampered certificate passed cert.Check")
	}

	other := req
	other.V = 2
	if checkCertified(&other, resp) == nil {
		t.Error("certificate for another agent passed")
	}
	bad = *resp
	bad.Certificate = nil
	if checkCertified(&req, &bad) == nil {
		t.Error("missing certificate passed")
	}
}

// doneJob wraps a scenario payload as a finished job.
func doneJob(t *testing.T, resp *client.ScenarioResponse) *client.Job {
	t.Helper()
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return &client.Job{ID: "j", Kind: resp.Kind, State: client.JobDone, Result: raw}
}

func TestGateRejectsTamperedJobResult(t *testing.T) {
	ctx := context.Background()
	kspec := client.ScenarioRequest{Kind: "ksybil", Graph: client.Graph{Ring: []string{"3", "8", "1", "6", "2", "9"}}, V: 2, K: 3, Grid: 6}
	g, _ := kspec.Graph.Build()
	kres, err := scenario.KSybil(ctx, g, kspec.V, scenario.KSybilOptions{K: kspec.K, Grid: kspec.Grid})
	if err != nil {
		t.Fatal(err)
	}
	tspec := client.ScenarioRequest{Kind: "topology", Families: []string{"tree", "er"}, Count: 1, N: 5, Grid: 3, Seed: 4, Dist: "uniform"}
	tres, err := scenario.Topology(ctx, scenario.TopologyOptions{Families: tspec.Families, Count: 1, N: 5, Grid: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	honestK := wireKSybil(&kspec, kres)
	honestT := wireTopology(&tspec, tres)
	for _, tc := range []struct {
		name   string
		spec   *client.ScenarioRequest
		resp   client.ScenarioResponse
		reject bool
	}{
		{"ksybil honest", &kspec, client.ScenarioResponse{Kind: "ksybil", Mechanism: "bd", KSybil: honestK}, false},
		{"ksybil point", &kspec, func() client.ScenarioResponse {
			k := *honestK
			k.Points = append([]server.WireScenarioKSybilPoint(nil), k.Points...)
			k.Points[3].U = "7/3"
			return client.ScenarioResponse{Kind: "ksybil", Mechanism: "bd", KSybil: &k}
		}(), true},
		{"ksybil ratio", &kspec, func() client.ScenarioResponse {
			k := *honestK
			k.Ratio = "2"
			return client.ScenarioResponse{Kind: "ksybil", Mechanism: "bd", KSybil: &k}
		}(), true},
		{"ksybil mechanism", &kspec, client.ScenarioResponse{Kind: "ksybil", Mechanism: "pr", KSybil: honestK}, true},
		{"topology honest", &tspec, client.ScenarioResponse{Kind: "topology", Mechanism: "bd", Topology: honestT}, false},
		{"topology outcome", &tspec, func() client.ScenarioResponse {
			r := *honestT
			r.Outcomes = append([]server.WireTopologyOutcome(nil), r.Outcomes...)
			r.Outcomes[1].WorstV++
			return client.ScenarioResponse{Kind: "topology", Mechanism: "bd", Topology: &r}
		}(), true},
		{"topology missing", &tspec, client.ScenarioResponse{Kind: "topology", Mechanism: "bd"}, true},
	} {
		err := checkJob(ctx, tc.spec, doneJob(t, &tc.resp), false).err
		if (err != nil) != tc.reject {
			t.Errorf("%s: gate error %v, want rejection %v", tc.name, err, tc.reject)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 5, seconds: time.Second, trace: traced, setups: 1, scratch: t.TempDir(), smoke: true}
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.attempted == 0 || rep.failedOps() > 0 {
				t.Fatalf("%s trace=%v: %d attempted, failures %v", name, traced, rep.attempted, rep.failed)
			}
			for _, d := range endToEnd {
				if !(rep.e2e[d.name] > 0) {
					t.Errorf("%s trace=%v: %s = %v", name, traced, d.name, rep.e2e[d.name])
				}
			}
			if traced && !(rep.layers["runtime.allocs_per_op"] > 0 && rep.layers["client.attempts_per_op"] >= 1) {
				t.Errorf("%s: traced run missing layer metrics: %v", name, rep.layers)
			}
		}
	}
}
