package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestSweepJobMechanismScoped pins the durable-sweep side of the mechanism
// layer: a kind "sweep" job under a non-native backend completes with a
// Result bit-identical to the inline /v1/sweep of the same request, and
// content addressing keeps per-mechanism jobs distinct (no false dedupe).
func TestSweepJobMechanismScoped(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"3", "1", "2", "1", "5"}}

	resp, inline := jobsPost(t, ts.URL+"/v1/sweep", SweepRequest{Graph: ring, V: 0, Grid: 16, Mechanism: "eqsplit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline sweep: %d %s", resp.StatusCode, inline)
	}

	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 0, Grid: 16, Mechanism: "eqsplit"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	done := waitJobState(t, ts.URL, sub.Job.ID, "done")
	if got, want := strings.TrimSpace(string(done.Result)), strings.TrimSpace(string(inline)); got != want {
		t.Fatalf("job result diverges from inline sweep:\n got: %s\nwant: %s", got, want)
	}

	// The same sweep under bd is different work: it must enqueue a second
	// job, not dedupe against the eqsplit one.
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 0, Grid: 16})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bd submit after eqsplit: %d %s", resp.StatusCode, body)
	}
	var bdSub JobSubmitResponse
	if err := json.Unmarshal(body, &bdSub); err != nil {
		t.Fatal(err)
	}
	if bdSub.Deduped || bdSub.Job.ID == sub.Job.ID {
		t.Fatalf("bd sweep deduped against eqsplit job %s", sub.Job.ID)
	}

	// Resubmitting the eqsplit sweep is the same work: dedupe.
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 0, Grid: 16, Mechanism: "eqsplit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var again JobSubmitResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.Job.ID != sub.Job.ID {
		t.Fatalf("eqsplit resubmission did not dedupe: %+v", again)
	}

	// Unknown mechanisms fail at submission with the stable code.
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 0, Mechanism: "quantum"})
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusBadRequest || er.Code != CodeUnknownMechanism {
		t.Fatalf("unknown mechanism submit: %d %s", resp.StatusCode, body)
	}
}

// tournamentFixture is the durable-job tournament used by the tests below:
// two instances, two mechanisms, a grid big enough that a restart lands
// mid-run.
func tournamentFixture() TournamentRequest {
	return TournamentRequest{
		Instances: []TournamentWireInstance{
			{Graph: WireGraph{Ring: []string{"1", "3/2", "2", "1/2", "5", "7/3", "4"}}, V: 1},
			{Graph: WireGraph{Ring: []string{"9", "1", "1", "1", "1"}}, V: 0},
		},
		Mechanisms: []string{"bd", "eqsplit"},
		Grid:       96,
	}
}

// TestTournamentJobRecoveryAcrossServers is the restart drill of the
// acceptance criteria: a tournament job accepted by one server survives
// that server's death and completes on a successor over the same data dir
// with a Result identical to an uninterrupted inline run.
func TestTournamentJobRecoveryAcrossServers(t *testing.T) {
	dir := t.TempDir()
	req := tournamentFixture()

	srv1, ts1 := newTestServer(t, Config{DataDir: dir, MaxQueueDepth: -1})
	want := func() string {
		resp, body := jobsPost(t, ts1.URL+"/v1/tournament", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inline tournament: %d %s", resp.StatusCode, body)
		}
		return strings.TrimSpace(string(body))
	}()

	resp, body := jobsPost(t, ts1.URL+"/v1/jobs", JobSubmitRequest{Kind: "tournament", Tournament: &req})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// Kill the first server while the job is (likely) mid-cell; Close blocks
	// until the worker has checkpointed and requeued.
	srv1.Close()

	srv2, ts2 := newTestServer(t, Config{DataDir: dir, MaxQueueDepth: -1})
	defer srv2.Close()
	done := waitJobState(t, ts2.URL, sub.Job.ID, "done")
	if got := strings.TrimSpace(string(done.Result)); got != want {
		t.Fatalf("recovered tournament diverges:\n got: %s\nwant: %s", got, want)
	}
}
