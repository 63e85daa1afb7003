package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkpointFixtures are the cross-version recovery fixtures: one durable
// job per kind. Each fixture directory under testdata/checkpoints holds the
// submission, the job ID it is addressed by, a mid-run checkpoint in the
// kind's point encoding, and the final result — all written by an earlier
// build with -update. Replaying them pins that job addresses, spec
// encodings, checkpoint codecs and results stay compatible with write-ahead
// logs persisted by that build, which a same-build round trip cannot: a
// codec changed on both the encode and the decode side would still agree
// with itself.
var checkpointFixtures = []struct {
	name string
	sub  JobSubmitRequest
}{
	{"sweep", JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "3/2", "2", "1/2", "5"}}, V: 1, Grid: 8}},
	{"enumerate", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{MinN: 3, MaxN: 4, Levels: 2, Grid: 4}}},
	{"tournament", JobSubmitRequest{Kind: "tournament", Tournament: &TournamentRequest{
		Instances: []TournamentWireInstance{
			{Graph: WireGraph{Ring: []string{"3", "1", "2", "1", "5"}}, V: 0},
			{Graph: WireGraph{Ring: []string{"9", "1", "1", "1"}}, V: 0},
		},
		Mechanisms: []string{"bd", "eqsplit"},
		Grid:       6,
	}}},
	{"ksybil", JobSubmitRequest{Kind: "ksybil", Scenario: &ScenarioRequest{
		Graph: WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}, V: 2, K: 3, Grid: 5}}},
	{"coalition", JobSubmitRequest{Kind: "coalition", Scenario: &ScenarioRequest{
		Graph: WireGraph{Ring: []string{"128", "2", "128", "4", "32"}}, Members: []int{4, 1}, Grid: 3}}},
	{"topology", JobSubmitRequest{Kind: "topology", Scenario: &ScenarioRequest{
		Families: []string{"ring", "tree", "er"}, Count: 2, N: 5, Grid: 3, Seed: 5}}},
}

// TestCheckpointFixturesRecover seeds each fixture's submission with its
// stored mid-run checkpoint on a fresh server and requires the same job ID,
// a resume at the checkpoint (not a restart), and a result byte-identical
// to the stored one. With -update it instead runs each job from scratch and
// rewrites the fixture from the run's own checkpoint prefix.
func TestCheckpointFixturesRecover(t *testing.T) {
	for _, fx := range checkpointFixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "checkpoints", fx.name)
			if *updateGolden {
				writeCheckpointFixture(t, dir, fx.sub)
				return
			}
			var sub JobSubmitRequest
			readFixtureJSON(t, filepath.Join(dir, "submission.json"), &sub)
			var ck JobCheckpoint
			readFixtureJSON(t, filepath.Join(dir, "checkpoint.json"), &ck)
			id := strings.TrimSpace(string(readFixture(t, filepath.Join(dir, "id.txt"))))
			want := readFixture(t, filepath.Join(dir, "result.json"))

			_, ts := jobsTestServer(t)
			sub.Checkpoint = &ck
			resp, body := jobsPost(t, ts.URL+"/v1/jobs", sub)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("seeded submit: %d %s", resp.StatusCode, body)
			}
			var got JobSubmitResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Job.ID != id {
				t.Fatalf("job ID %s, fixture %s", got.Job.ID, id)
			}
			if got.Job.NextIndex != ck.NextIndex {
				t.Fatalf("seeded job starts at %d, want %d", got.Job.NextIndex, ck.NextIndex)
			}
			done := waitJobState(t, ts.URL, id, "done")
			if !bytes.Equal(done.Result, bytes.TrimSpace(want)) {
				t.Fatalf("result drifted from %s:\ngot:  %s\nwant: %s", dir, done.Result, want)
			}
		})
	}
}

// writeCheckpointFixture runs sub to completion and stores the four
// fixture files, the checkpoint being the first half of the job's points.
func writeCheckpointFixture(t *testing.T, dir string, sub JobSubmitRequest) {
	t.Helper()
	_, ts := jobsTestServer(t)
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var got JobSubmitResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	done := waitJobState(t, ts.URL, got.Job.ID, "done")
	if len(done.Points) < 2 {
		t.Fatalf("job has %d points; a fixture needs a mid-run checkpoint", len(done.Points))
	}
	mid := len(done.Points) / 2
	ck := JobCheckpoint{NextIndex: mid, Points: done.Points[:mid]}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"submission.json": mustIndent(t, sub),
		"checkpoint.json": mustIndent(t, ck),
		"id.txt":          []byte(got.Job.ID + "\n"),
		"result.json":     append(append([]byte(nil), done.Result...), '\n'),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func mustIndent(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func readFixture(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	return raw
}

func readFixtureJSON(t *testing.T, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(readFixture(t, path), v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
