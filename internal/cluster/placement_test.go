package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/server"
)

// TestJobPlacementIgnoresPriorityAndCheckpoint resubmits one ksybil job
// through a 3-node router at eight priorities, the last one also carrying
// an empty checkpoint. Placement must not depend on either field: exactly
// one submission is accepted fresh, every other one dedupes to it, exactly
// one node holds the job, and that node is the owner of the job's graph —
// the node /v1/scenario routes the same instance to, where its cache is
// warm.
func TestJobPlacementIgnoresPriorityAndCheckpoint(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = startNode(t, fmt.Sprintf("n%d", i+1), server.Config{DataDir: t.TempDir()}).url
	}
	r, rts := startRouter(t, Config{}, urls...)

	graph := server.WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}
	scen := &server.ScenarioRequest{Graph: graph, V: 2, K: 3, Grid: 5}
	accepted, id := 0, ""
	for prio := 0; prio < 8; prio++ {
		sub := server.JobSubmitRequest{Kind: "ksybil", Scenario: scen, Priority: prio}
		if prio == 7 {
			sub.Checkpoint = &server.JobCheckpoint{Points: []server.WireSweepPoint{}}
		}
		body, _ := json.Marshal(sub)
		resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr server.JobSubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("priority %d: decode: %v", prio, err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
		default:
			t.Fatalf("priority %d: status %d", prio, resp.StatusCode)
		}
		if id == "" {
			id = jr.Job.ID
		} else if jr.Job.ID != id {
			t.Fatalf("priority %d: job %s, want %s", prio, jr.Job.ID, id)
		}
	}
	if accepted != 1 {
		t.Fatalf("%d submissions were accepted fresh, want 1", accepted)
	}

	var holders []string
	for _, u := range urls {
		resp, err := http.Get(u + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list server.JobListResponse
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range list.Jobs {
			if j.ID == id {
				holders = append(holders, u)
			}
		}
	}
	key, err := server.PlacementKey(&graph, "")
	if err != nil {
		t.Fatal(err)
	}
	if owner := r.aliveSequence(key)[0]; len(holders) != 1 || holders[0] != owner {
		t.Fatalf("job held by %v, want only the graph's owner %s", holders, owner)
	}
}
