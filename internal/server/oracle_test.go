package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/cert/enum"
	"repro/internal/scan"
)

// oracleRing is the shared corpus instance of the equivalence oracle.
var oracleRing = WireGraph{Ring: []string{"1", "3/2", "2", "1/2", "5"}}

// oracleCase is one kind × mechanism cell of the oracle: the job
// submission, the inline request answering the same question (nil for
// enumerate, whose reference is the library run), and the point count.
type oracleCase struct {
	name   string
	total  int
	job    JobSubmitRequest
	inline func(t *testing.T, base string) []byte
	// alt, when set, is an equivalent respelling of job that must dedupe.
	alt *JobSubmitRequest
}

// inlinePost returns the inline reference that posts body to path and
// requires 200.
func inlinePost(path string, body any) func(t *testing.T, base string) []byte {
	return func(t *testing.T, base string) []byte {
		status, raw := postJSON(t, base, path, body)
		if status != http.StatusOK {
			t.Fatalf("inline %s: %d %s", path, status, raw)
		}
		return raw
	}
}

// scenarioCase is the oracle cell of a scenario request: the job of its
// kind against the inline /v1/scenario answer.
func scenarioCase(name string, total int, req ScenarioRequest) oracleCase {
	return oracleCase{name: name, total: total, inline: inlinePost("/v1/scenario", req),
		job: JobSubmitRequest{Kind: req.Kind, Scenario: &req}}
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, m := range []string{"bd", "eqsplit", "pr"} {
		sweep := SweepRequest{Graph: oracleRing, V: 1, Grid: 6, Mechanism: m}
		ksybil := ScenarioRequest{Kind: "ksybil", Graph: oracleRing, V: 1, K: 3, Grid: 3, Mechanism: m}
		coalition := ScenarioRequest{Kind: "coalition", Graph: oracleRing, Members: []int{4, 1}, Grid: 2, Mechanism: m}
		topology := ScenarioRequest{Kind: "topology", Families: []string{"ring", "tree"}, Count: 1, N: 5, Grid: 3, Seed: 11, Mechanism: m}
		cases = append(cases,
			oracleCase{name: "sweep/" + m, total: 7, inline: inlinePost("/v1/sweep", sweep),
				job: JobSubmitRequest{Graph: sweep.Graph, V: sweep.V, Grid: sweep.Grid, Mechanism: m}},
			scenarioCase("ksybil/"+m, 10, ksybil),
			scenarioCase("coalition/"+m, 4, coalition),
			scenarioCase("topology/"+m, 2, topology),
		)
	}
	tournament := TournamentRequest{
		Instances: []TournamentWireInstance{
			{Graph: oracleRing, V: 1},
			{Graph: WireGraph{Ring: []string{"9", "1", "1", "1"}}, V: 0},
		},
		Mechanisms: []string{"bd", "eqsplit", "pr"},
		Grid:       4,
	}
	reordered := tournament
	reordered.Mechanisms = []string{"pr", "eqsplit", "bd", "bd"}
	enumReq := EnumJobRequest{MinN: 3, MaxN: 4, Levels: 2, Grid: 4}
	return append(cases,
		oracleCase{name: "tournament", total: 6, inline: inlinePost("/v1/tournament", tournament),
			job: JobSubmitRequest{Kind: "tournament", Tournament: &tournament},
			alt: &JobSubmitRequest{Kind: "tournament", Tournament: &reordered}},
		oracleCase{name: "enumerate/bd", total: 16, inline: func(t *testing.T, _ string) []byte {
			sc, err := enum.NewScan(enum.Options{MinN: enumReq.MinN, MaxN: enumReq.MaxN, Levels: enumReq.Levels, Grid: enumReq.Grid})
			if err != nil {
				t.Fatal(err)
			}
			r, err := scan.Run(context.Background(), sc, scan.Options[enum.Outcome]{Workers: 2})
			if err != nil || r.Partial {
				t.Fatalf("library enumeration: %v", err)
			}
			sum, err := enum.Summarize(r.Points, enum.Options{}.Resolved().Eps)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(sum)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}, job: JobSubmitRequest{Kind: "enumerate", Enum: &enumReq}},
	)
}

// TestEquivalenceOracle is the one equivalence oracle over every job kind
// × mechanism on a shared corpus. For each it requires byte equality of
// the inline answer, the job result, and the result of the same job seeded
// on a fresh server with a mid-run checkpoint of the first; that the
// seeded job resumes at the checkpoint under the same ID; that the job
// reports its kind and point count and checkpoints every point; and that
// resubmitting (or an equivalent respelling) dedupes to the finished job.
func TestEquivalenceOracle(t *testing.T) {
	_, tsA := jobsTestServer(t)
	_, tsB := jobsTestServer(t)
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) { checkEquivalence(t, tsA.URL, tsB.URL, tc) })
	}
}

// checkEquivalence runs one oracle cell: the inline answer and the job on
// server a, then the job seeded with a's mid-run checkpoint on server b,
// which must not have seen it.
func checkEquivalence(t *testing.T, a, b string, tc oracleCase) {
	t.Helper()
	inline := bytes.TrimSpace(tc.inline(t, a))

	sub := submitJob(t, a, tc.job, http.StatusAccepted)
	if kind := jobKindOf(tc.job.Kind).name; sub.Job.Kind != kind || sub.Job.State == "" || sub.Job.TotalPoints != tc.total {
		t.Fatalf("submitted %+v, want kind %s with %d points", sub.Job, kind, tc.total)
	}
	done := waitJobState(t, a, sub.Job.ID, "done")
	if !bytes.Equal(done.Result, inline) {
		t.Fatalf("job result differs from inline:\njob:    %s\ninline: %s", done.Result, inline)
	}
	if done.NextIndex != tc.total || len(done.Points) != tc.total {
		t.Fatalf("checkpoints: next %d, %d points, want %d", done.NextIndex, len(done.Points), tc.total)
	}
	for _, again := range []*JobSubmitRequest{&tc.job, tc.alt} {
		if again != nil {
			if dup := submitJob(t, a, *again, http.StatusOK); !dup.Deduped || dup.Job.ID != sub.Job.ID {
				t.Fatalf("resubmission did not dedupe: %+v", dup)
			}
		}
	}

	mid := tc.total / 2
	seeded := tc.job
	seeded.Checkpoint = &JobCheckpoint{NextIndex: mid, Points: done.Points[:mid]}
	subB := submitJob(t, b, seeded, http.StatusAccepted)
	if subB.Job.ID != sub.Job.ID || subB.Job.NextIndex != mid {
		t.Fatalf("seeded job %s at %d, want %s at %d", subB.Job.ID, subB.Job.NextIndex, sub.Job.ID, mid)
	}
	if doneB := waitJobState(t, b, subB.Job.ID, "done"); !bytes.Equal(doneB.Result, inline) {
		t.Fatalf("seeded job result differs:\nseeded: %s\ninline: %s", doneB.Result, inline)
	}
}

// TestEquivalenceKSybilK2IsSweep requires the k = 2 ksybil scan to be the
// two-identity sweep under every mechanism: point i is the composition
// (i, grid−i) with the sweep's utility at w1 = W·i/grid, and the honest
// baseline, best utility and ratio agree string for string.
func TestEquivalenceKSybilK2IsSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const grid = 6
	for _, m := range []string{"bd", "eqsplit", "pr"} {
		var sw SweepResponse
		mustPost(t, ts.URL, "/v1/sweep", SweepRequest{Graph: oracleRing, V: 1, Grid: grid, Mechanism: m}, &sw)
		var sc ScenarioResponse
		mustPost(t, ts.URL, "/v1/scenario", ScenarioRequest{Kind: "ksybil", Graph: oracleRing, V: 1, K: 2, Grid: grid, Mechanism: m}, &sc)
		ks := sc.KSybil
		if ks == nil || ks.Total != grid+1 || len(ks.Points) != grid+1 || len(sw.Points) != grid+1 {
			t.Fatalf("%s: scenario %+v, %d sweep points", m, ks, len(sw.Points))
		}
		for i, p := range ks.Points {
			if fmt.Sprint(p.Comp) != fmt.Sprint([]int{i, grid - i}) || p.U != sw.Points[i].U {
				t.Fatalf("%s point %d: scenario %v %s, sweep %s", m, i, p.Comp, p.U, sw.Points[i].U)
			}
		}
		if ks.Honest != sw.Honest || ks.BestU != sw.BestU || ks.Ratio != sw.Ratio {
			t.Fatalf("%s: scenario (%s, %s, %s) != sweep (%s, %s, %s)", m, ks.Honest, ks.BestU, ks.Ratio, sw.Honest, sw.BestU, sw.Ratio)
		}
	}
}

// submitJob posts a job submission and requires the given status.
func submitJob(t *testing.T, base string, req JobSubmitRequest, status int) JobSubmitResponse {
	t.Helper()
	resp, body := jobsPost(t, base+"/v1/jobs", req)
	if resp.StatusCode != status {
		t.Fatalf("submit: %d, want %d: %s", resp.StatusCode, status, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}
