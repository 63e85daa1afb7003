package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func jobsTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{DataDir: t.TempDir(), MaxQueueDepth: -1})
}

func jobsPost(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func jobsGet(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches want.
func waitJobState(t *testing.T, base, id, want string) WireJob {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var j WireJob
	for time.Now().Before(deadline) {
		jobsGet(t, base+"/v1/jobs/"+id, &j)
		if j.State == want {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, j)
	return j
}

func TestJobSubmitDedupes(t *testing.T) {
	_, ts := jobsTestServer(t)
	// Same instance spelled two ways ("2/6" ≡ "1/3") must dedupe.
	a := JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "2/6", "3"}}, V: 0, Grid: 8}
	b := JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "1/3", "3"}}, V: 0, Grid: 8}

	resp, body := jobsPost(t, ts.URL+"/v1/jobs", a)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	var first JobSubmitResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	resp, body = jobsPost(t, ts.URL+"/v1/jobs", b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s", resp.StatusCode, body)
	}
	var second JobSubmitResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || second.Job.ID != first.Job.ID {
		t.Fatalf("dedupe: first %s, second %+v", first.Job.ID, second)
	}
	// A different grid is a different job.
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: a.Graph, V: 0, Grid: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("different-grid submit: %d %s", resp.StatusCode, body)
	}
	var third JobSubmitResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Job.ID == first.Job.ID {
		t.Fatal("different grid deduped to the same job")
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := jobsTestServer(t)
	cases := []struct {
		name string
		req  JobSubmitRequest
		code string
	}{
		{"bad grid", JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "1", "1"}}, Grid: 9999}, CodeBadGrid},
		{"not ring", JobSubmitRequest{Graph: WireGraph{Path: []string{"1", "2"}}}, CodeNotRing},
		{"bad agent", JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "1", "1"}}, V: 7}, CodeBadAgent},
		{"bad graph", JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "x", "1"}}}, CodeBadGraph},
	}
	for _, tc := range cases {
		resp, body := jobsPost(t, ts.URL+"/v1/jobs", tc.req)
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != tc.code {
			t.Errorf("%s: status %d code %q, want 400 %q", tc.name, resp.StatusCode, e.Code, tc.code)
		}
	}

	resp := jobsGet(t, ts.URL+"/v1/jobs/jnope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job GET: %d", resp.StatusCode)
	}
	resp = jobsGet(t, ts.URL+"/v1/jobs?cursor=banana", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d", resp.StatusCode)
	}
	resp = jobsGet(t, ts.URL+"/v1/jobs?state=exploded", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad state filter: %d", resp.StatusCode)
	}
}

func TestJobsDisabledWithoutDataDir(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "1", "1"}}})
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotImplemented || e.Code != CodeJobsDisabled {
		t.Fatalf("submit without data dir: %d %q", resp.StatusCode, e.Code)
	}
	for _, url := range []string{ts.URL + "/v1/jobs", ts.URL + "/v1/jobs/j123"} {
		if resp := jobsGet(t, url, nil); resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("GET %s without data dir: %d", url, resp.StatusCode)
		}
	}
}

func TestJobListPagination(t *testing.T) {
	_, ts := jobsTestServer(t)
	for i := 0; i < 5; i++ {
		grid := 4 + i
		resp, body := jobsPost(t, ts.URL+"/v1/jobs",
			JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "2", "3"}}, V: 0, Grid: grid})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	var seen []string
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v1/jobs?limit=2" + cursor
		var page JobListResponse
		if resp := jobsGet(t, url, &page); resp.StatusCode != http.StatusOK {
			t.Fatalf("list: %d", resp.StatusCode)
		}
		for _, j := range page.Jobs {
			seen = append(seen, j.ID)
		}
		pages++
		if page.NextCursor == 0 {
			break
		}
		cursor = fmt.Sprintf("&cursor=%d", page.NextCursor)
	}
	if len(seen) != 5 || pages != 3 {
		t.Fatalf("pagination: %d jobs over %d pages", len(seen), pages)
	}
	uniq := map[string]bool{}
	for _, id := range seen {
		uniq[id] = true
	}
	if len(uniq) != 5 {
		t.Fatalf("duplicate IDs across pages: %v", seen)
	}

	// Wait for all to finish, then the state filter must partition cleanly.
	for _, id := range seen {
		waitJobState(t, ts.URL, id, "done")
	}
	var done JobListResponse
	jobsGet(t, ts.URL+"/v1/jobs?state=done", &done)
	if len(done.Jobs) != 5 {
		t.Fatalf("state=done: %d jobs", len(done.Jobs))
	}
	var queued JobListResponse
	jobsGet(t, ts.URL+"/v1/jobs?state=queued", &queued)
	if len(queued.Jobs) != 0 {
		t.Fatalf("state=queued after completion: %d jobs", len(queued.Jobs))
	}
}

func TestJobCancel(t *testing.T) {
	_, ts := jobsTestServer(t)
	// A big grid keeps the job running long enough to cancel it.
	resp, body := jobsPost(t, ts.URL+"/v1/jobs",
		JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "3/2", "2", "5/3", "7", "1/9", "4", "11/2"}}, V: 2, Grid: 4096})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	got := waitJobState(t, ts.URL, sub.Job.ID, "canceled")
	if got.Result != nil {
		t.Fatalf("canceled job has a result: %+v", got)
	}

	// Canceling a terminal job is a conflict.
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	err = json.NewDecoder(dresp.Body).Decode(&e)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusConflict || e.Code != CodeJobTerminal {
		t.Fatalf("double cancel: %d %q", dresp.StatusCode, e.Code)
	}
}

func TestJobsMetricsExposed(t *testing.T) {
	_, ts := jobsTestServer(t)
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: WireGraph{Ring: []string{"1", "2", "3"}}, Grid: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, sub.Job.ID, "done")

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		`irshared_jobs_total{state="done"} 1`,
		"irshared_jobs_queue_depth 0",
		"irshared_jobs_running 0",
		"irshared_job_age_seconds_count 1",
		"irshared_jobs_wal_appends_total",
		"irshared_jobs_wal_syncs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// A server without jobs must not grow the exposition.
	_, plain := newTestServer(t, Config{})
	presp, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	pdata, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(pdata), "irshared_jobs_") {
		t.Error("jobs series exposed without a data dir")
	}
}

// TestJobRecoveryAcrossServers exercises recovery at the server layer: a
// first server accepts a job and is closed mid-run; a second server over
// the same data dir recovers it and completes it with a result identical to
// an uninterrupted inline sweep.
func TestJobRecoveryAcrossServers(t *testing.T) {
	dir := t.TempDir()
	ring := WireGraph{Ring: []string{"1", "3/2", "2", "1/2", "5", "7/3", "4"}}

	srv1, ts1 := newTestServer(t, Config{DataDir: dir, MaxQueueDepth: -1})
	want := func() string {
		resp, body := jobsPost(t, ts1.URL+"/v1/sweep", SweepRequest{Graph: ring, V: 1, Grid: 192})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inline sweep: %d %s", resp.StatusCode, body)
		}
		return strings.TrimSpace(string(body))
	}()

	resp, body := jobsPost(t, ts1.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 1, Grid: 192})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// Close the first server while the job is (likely) mid-run. Close blocks
	// until the worker has checkpointed and requeued.
	srv1.Close()

	srv2, ts2 := newTestServer(t, Config{DataDir: dir, MaxQueueDepth: -1})
	defer srv2.Close()
	done := waitJobState(t, ts2.URL, sub.Job.ID, "done")
	if got := strings.TrimSpace(string(done.Result)); got != want {
		t.Fatalf("recovered result diverges:\n got: %s\nwant: %s", got, want)
	}
}
