package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/numeric"
)

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != "ok" {
		t.Fatalf("body %v (err %v)", body, err)
	}
}

// TestMetricsExposition checks named series after a fixed sequence of
// requests, then extends the sequence with a ratio and a sweep job run to
// done and compares the whole scrape, wall-time values masked, with
// testdata/exposition.prom: every series name, label, HELP/TYPE line,
// bucket bound, order and count.
func TestMetricsExposition(t *testing.T) {
	// One P: the solver's grid phase evaluates its points in order, so its
	// span counters (cache hits, warm starts, par_workers) are the same on
	// every run and every host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), PoolSize: 2})
	// Generate some traffic first.
	ring := WireGraph{Ring: []string{"1", "2", "3"}}
	for i := 0; i < 3; i++ {
		mustPost(t, ts.URL, "/v1/utilities", UtilitiesRequest{Graph: ring}, &UtilitiesResponse{})
	}
	postJSON(t, ts.URL, "/v1/decompose", DecomposeRequest{Graph: ring, Engine: "quantum"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		`irshared_requests_total{endpoint="/v1/utilities",code="200"} 3`,
		`irshared_requests_total{endpoint="/v1/decompose",code="400"} 1`,
		`irshared_request_seconds_count{endpoint="/v1/utilities"} 3`,
		"irshared_cache_hits_total 2",
		"irshared_cache_misses_total 1",
		"irshared_cache_entries 1",
		"irshared_pool_capacity",
		"irshared_batch_runs_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}

	mustPost(t, ts.URL, "/v1/ratio", RatioRequest{Graph: ring, V: 0, Grid: 4}, &RatioResponse{})
	if status, raw := postJSON(t, ts.URL, "/v1/jobs", JobSubmitRequest{Graph: ring, V: 1, Grid: 4}); status != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", status, raw)
	}
	// Poll the scrape (not the job API, whose requests it would count)
	// until the job is done, its worker has left the pool and the last
	// request trace has been ingested.
	settled := []string{
		`irshared_jobs_total{state="done"} 1`, "irshared_jobs_running 0",
		"irshared_pool_in_use 0", "irshared_traces_finished_total 8",
	}
	text = scrapeUntil(t, ts.URL, settled)
	checkExposition(t, filepath.Join("testdata", "exposition.prom"), maskExposition(text), *updateGolden)
}

// scrapeUntil scrapes base's /metrics until the text holds every line in
// want, failing after 15 s.
func scrapeUntil(t *testing.T, base string, want []string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text, missing := string(raw), ""
		for _, w := range want {
			if !strings.Contains(text, w+"\n") {
				missing = w
				break
			}
		}
		if missing == "" {
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q:\n%s", missing, text)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// maskExposition blanks the sample values that depend on wall time — every
// *_seconds_bucket and *_seconds_sum sample and the WAL's byte size — so
// the rest of a scrape compares byte for byte.
func maskExposition(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, ln := range lines {
		name := ln[:strings.IndexAny(ln+" ", "{ ")]
		if strings.HasSuffix(name, "_seconds_bucket") || strings.HasSuffix(name, "_seconds_sum") || name == "irshared_jobs_wal_bytes" {
			lines[i] = ln[:strings.LastIndexByte(ln, ' ')] + " <masked>\n"
		}
	}
	return strings.Join(lines, "")
}

// checkExposition compares a masked scrape with its golden file, or
// rewrites the file when update is set.
func checkExposition(t *testing.T, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

func TestNewLogger(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if l, err := NewLogger(format); err != nil || l == nil {
			t.Fatalf("NewLogger(%q) = %v, %v", format, l, err)
		}
	}
	if _, err := NewLogger("yaml"); err == nil || !strings.Contains(err.Error(), `unknown -log format "yaml"`) {
		t.Fatalf("NewLogger(yaml) = %v", err)
	}
}

func TestMethodAndBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/decompose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decompose: status %d, want 405", resp.StatusCode)
	}
	// Oversized body.
	big := bytes.Repeat([]byte("x"), 1024)
	status, _ := postRaw(t, ts.URL+"/v1/decompose", big)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", status)
	}
	// Unknown field.
	status, raw := postRaw(t, ts.URL+"/v1/decompose", []byte(`{"graph":{"ring":["1","1","1"]},"oops":1}`))
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("oops")) {
		t.Fatalf("unknown field: status %d body %s", status, raw)
	}
	// Trailing garbage.
	status, _ = postRaw(t, ts.URL+"/v1/decompose", []byte(`{"graph":{"ring":["1","1","1"]}} trailing`))
	if status != http.StatusBadRequest {
		t.Fatalf("trailing data: status %d, want 400", status)
	}
}

func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// mustRing builds a unit-free test ring of size n with weights 1..n.
func mustRing(t *testing.T, n int) *graph.Graph {
	t.Helper()
	ws := make([]numeric.Rat, n)
	for i := range ws {
		ws[i] = numeric.FromInt(int64(i%7 + 1))
	}
	return graph.Ring(ws)
}

// TestQueueTimeoutReturns503 holds the single pool slot itself, so the
// saturation does not depend on how long some other computation runs: a
// request queued behind it gets 503 once the queue timeout passes, and the
// same request is answered once the slot is free again.
func TestQueueTimeoutReturns503(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1, QueueTimeout: 10 * time.Millisecond})
	if err := srv.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := UtilitiesRequest{Graph: WireGraph{Ring: []string{"1", "1", "1"}}}
	status, raw := postJSON(t, ts.URL, "/v1/utilities", req)
	if status != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("no worker slot")) {
		t.Fatalf("saturated pool: status %d body %s, want 503 no worker slot", status, raw)
	}
	srv.pool.Release()
	if status, raw = postJSON(t, ts.URL, "/v1/utilities", req); status != http.StatusOK {
		t.Fatalf("freed pool: status %d body %s, want 200", status, raw)
	}
}

// TestServeAndDrain serves until the context ends, answers in between,
// and returns nil once drained; a listener that cannot accept is an error.
func TestServeAndDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx, cancel := context.WithCancel(context.Background())
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})}
	done := make(chan error, 1)
	go func() { done <- ServeAndDrain(ctx, hs, ln, time.Second, logger) }()
	resp, err := http.Get("http://" + ln.Addr().String())
	if err != nil {
		t.Fatalf("no answer while serving: %v", err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if err := ServeAndDrain(context.Background(), &http.Server{}, closed, time.Second, logger); err == nil {
		t.Fatal("closed listener accepted")
	}
}
