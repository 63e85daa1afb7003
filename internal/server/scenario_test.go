package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/cert"
)

// TestScenarioJobsMatchInline runs the equivalence oracle over the three
// scenario job kinds on a seven-node ring with large weight spreads and an
// Erdős–Rényi topology family, a wider corpus than the oracle's shared one:
// job result == inline /v1/scenario body, kind, point count, dedupe, and a
// mid-run checkpoint seeded on a fresh server.
func TestScenarioJobsMatchInline(t *testing.T) {
	_, tsA := jobsTestServer(t)
	_, tsB := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"128", "2", "128", "128", "512", "4", "32"}}
	for _, tc := range []oracleCase{
		scenarioCase("ksybil", 28, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 4, K: 3, Grid: 6}),
		scenarioCase("coalition", 9, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{5, 4}, Grid: 3}),
		scenarioCase("topology", 3, ScenarioRequest{Kind: "topology", Families: []string{"ring", "tree", "er"}, Count: 1, N: 5, Grid: 3, Seed: 11}),
	} {
		t.Run(tc.name, func(t *testing.T) { checkEquivalence(t, tsA.URL, tsB.URL, tc) })
	}
}

// TestScenarioJobCheckpointSeed replays a completed ksybil job's checkpoint
// prefix into a fresh server (the cluster router's failover path) and
// requires the re-placed job to resume — not restart — under the same ID
// and still produce the bit-identical final Result.
func TestScenarioJobCheckpointSeed(t *testing.T) {
	_, tsA := jobsTestServer(t)
	_, tsB := jobsTestServer(t)
	req := ScenarioRequest{Kind: "ksybil", Graph: WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}, V: 2, K: 3, Grid: 5}
	checkEquivalence(t, tsA.URL, tsB.URL, scenarioCase("ksybil", 21, req))
}

// TestScenarioTopologyCertificate requires a cert-opted topology scan to
// attach a BD ratio certificate for the best ring point, checkable by the
// client without trusting the server.
func TestScenarioTopologyCertificate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL, "/v1/scenario",
		ScenarioRequest{Kind: "topology", Families: []string{"ring"}, Count: 2, N: 5, Grid: 4, Seed: 3, Cert: true})
	if status != http.StatusOK {
		t.Fatalf("scenario: %d %s", status, raw)
	}
	var resp ScenarioResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Topology == nil || resp.Topology.Certificate == nil {
		t.Fatalf("no certificate attached: %s", raw)
	}
	if err := cert.Check(resp.Topology.Certificate); err != nil {
		t.Fatalf("client-side certificate check: %v", err)
	}
}

// TestScenarioValidation pins the stable error codes of the scenario
// request surface.
func TestScenarioValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ring := WireGraph{Ring: []string{"1", "2", "3", "4", "5"}}
	cases := []struct {
		name string
		code string
		req  ScenarioRequest
	}{
		{"missing_kind", CodeBadBody, ScenarioRequest{}},
		{"unknown_kind", CodeBadBody, ScenarioRequest{Kind: "quantum"}},
		{"k_too_big", CodeScenarioLimit, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, K: 9}},
		{"points_blowup", CodeScenarioLimit, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, K: 8, Grid: 512}},
		{"not_ring", CodeNotRing, ScenarioRequest{Kind: "ksybil", Graph: WireGraph{Path: []string{"1", "2", "3"}}, V: 0}},
		{"bad_agent", CodeBadAgent, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 9}},
		{"bad_graph", CodeBadGraph, ScenarioRequest{Kind: "coalition", Graph: WireGraph{Ring: []string{"1", "-2", "3"}}, Members: []int{0, 1}}},
		{"dup_member", CodeBadAgent, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{1, 1}}},
		{"member_range", CodeBadAgent, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 7}}},
		{"too_many_members", CodeScenarioLimit, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 1, 2, 3, 4}}},
		{"coalition_blowup", CodeScenarioLimit, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 1, 2, 3}, Grid: 9}},
		{"unknown_family", CodeUnknownTopology, ScenarioRequest{Kind: "topology", Families: []string{"torus"}}},
		{"dup_family", CodeBadBody, ScenarioRequest{Kind: "topology", Families: []string{"ring", "ring"}}},
		{"bad_dist", CodeBadBody, ScenarioRequest{Kind: "topology", Dist: "zipf"}},
		{"small_n", CodeScenarioLimit, ScenarioRequest{Kind: "topology", N: 4}},
		{"grid_one", CodeBadGrid, ScenarioRequest{Kind: "topology", Grid: 1}},
		{"cert_wrong_kind", CodeCertLimit, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, Cert: true}},
		{"cert_bad_mech", CodeCertLimit, ScenarioRequest{Kind: "topology", Mechanism: "eqsplit", Cert: true}},
		{"cert_no_ring", CodeCertLimit, ScenarioRequest{Kind: "topology", Families: []string{"tree"}, Cert: true}},
		{"unknown_mech", CodeUnknownMechanism, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, Mechanism: "quantum"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postJSON(t, ts.URL, "/v1/scenario", tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d: %s", status, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Code != tc.code {
				t.Fatalf("code %q (err %v), want %q: %s", er.Code, err, tc.code, raw)
			}
		})
	}
}

// TestScenarioJobKindConflict rejects a submission whose nested scenario
// kind contradicts the job kind.
func TestScenarioJobKindConflict(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"1", "2", "3"}}
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind:     "ksybil",
		Scenario: &ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != CodeBadBody {
		t.Fatalf("code %q (err %v): %s", er.Code, err, body)
	}
}

// TestJobListKindFilter exercises the ?kind= filter of GET /v1/jobs.
func TestJobListKindFilter(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"1", "2", "3", "4", "5"}}
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 1, Grid: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d %s", resp.StatusCode, body)
	}
	sr := ScenarioRequest{Kind: "ksybil", Graph: ring, V: 1, K: 2, Grid: 4}
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: "ksybil", Scenario: &sr})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ksybil submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, sub.Job.ID, "done")

	var list JobListResponse
	jobsGet(t, ts.URL+"/v1/jobs?kind=ksybil", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Kind != "ksybil" {
		t.Fatalf("kind filter answered %+v", list.Jobs)
	}
	if list.Jobs[0].TotalPoints != 5 {
		t.Fatalf("total_points %d, want 5", list.Jobs[0].TotalPoints)
	}
	var all JobListResponse
	jobsGet(t, ts.URL+"/v1/jobs", &all)
	if len(all.Jobs) != 2 {
		t.Fatalf("unfiltered list has %d jobs", len(all.Jobs))
	}
	if resp := jobsGet(t, ts.URL+"/v1/jobs?kind=quantum", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind filter: %d", resp.StatusCode)
	}
}
