package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden exposition files")

// TestRouterMetricsExposition routes a ratio and a decompose through a
// router to one backend, then compares both daemons' scrapes with
// testdata/exposition_router.prom and testdata/exposition_backend.prom.
// Only wall-time values and the backend's URL are masked; every series
// name, label, HELP/TYPE line, bucket bound, order and count compares
// exactly. The hour-long probe interval leaves the router's first probe
// as its only one, and one P makes the backend's solver evaluate its grid
// in order, so its span counters are the same on every run and host.
func TestRouterMetricsExposition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := startNode(t, "only", server.Config{PoolSize: 2})
	_, rts := startRouter(t, Config{ProbeInterval: time.Hour}, n.url)
	scrapeUntil(t, rts.URL, `irrouter_probes_total{result="ok"} 1`)

	rc := client.New(rts.URL)
	ring := client.Graph{Ring: []string{"1", "2", "3"}}
	if _, err := rc.Ratio(context.Background(), &client.RatioRequest{Graph: ring, V: 0, Grid: 4}); err != nil {
		t.Fatalf("proxied ratio: %v", err)
	}
	if _, err := rc.Decompose(context.Background(), &client.DecomposeRequest{Graph: ring}); err != nil {
		t.Fatalf("proxied decompose: %v", err)
	}

	// Each daemon finishes a request's trace after answering it: wait for
	// the router's two and the backend's three (two requests and the
	// ratio's batch computation).
	router := scrapeUntil(t, rts.URL, "irrouter_traces_finished_total 2")
	backend := scrapeUntil(t, n.url, "irshared_traces_finished_total 3")
	for name, text := range map[string]string{"router": router, "backend": backend} {
		got := strings.ReplaceAll(maskExposition(text), n.url, "<node>")
		path := filepath.Join("testdata", "exposition_"+name+".prom")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s exposition drifted from %s at line %d:\ngot:  %s\nwant: %s", name, path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s exposition drifted from %s: %d lines, want %d", name, path, len(gl), len(wl))
		}
	}
}

// TestRouterTrace: a routed request's X-Router-Trace-Id resolves at the
// router's /debug/trace to the tree of its hop, and the handler answers
// like irshared's: 404 not_found for an unknown id, 400 bad_body for a bad
// one, and 404 on a router with tracing off.
func TestRouterTrace(t *testing.T) {
	n := startNode(t, "only", server.Config{})
	_, rts := startRouter(t, Config{}, n.url)
	resp, err := http.Post(rts.URL+"/v1/ratio", "application/json",
		strings.NewReader(`{"graph":{"ring":["1","2","3"]},"v":0,"grid":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Router-Trace-Id")
	if resp.StatusCode != http.StatusOK || id == "" {
		t.Fatalf("routed ratio: %d, trace id %q", resp.StatusCode, id)
	}
	// The router finishes a trace after answering: poll until it lands.
	var snap obs.TraceSnapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		status, body := getBody(t, rts.URL+"/debug/trace?id="+id)
		if status == http.StatusOK {
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never resolved: %d %s", id, status, body)
		}
	}
	spans := map[string]bool{}
	snap.Root.Walk(func(sp *obs.SpanSnapshot) { spans[sp.Name] = true })
	if snap.Name != "/v1/ratio" || !spans["router.place"] || !spans["router.forward"] {
		t.Fatalf("trace %s = %q with spans %v, want /v1/ratio with router.place and router.forward", id, snap.Name, spans)
	}

	_, off := startRouter(t, Config{TraceBuffer: -1}, n.url)
	for _, tc := range []struct {
		url    string
		status int
		code   string
	}{
		{rts.URL + "/debug/trace?id=999999", http.StatusNotFound, server.CodeNotFound},
		{rts.URL + "/debug/trace?id=x", http.StatusBadRequest, server.CodeBadBody},
		{off.URL + "/debug/trace?id=" + id, http.StatusNotFound, server.CodeNotFound},
	} {
		status, body := getBody(t, tc.url)
		var e server.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || status != tc.status || e.Code != tc.code {
			t.Errorf("GET %s = %d %s, want %d %s", tc.url, status, body, tc.status, tc.code)
		}
	}
}

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// scrapeUntil scrapes base's /metrics until the text holds the line want,
// failing after 15 s.
func scrapeUntil(t *testing.T, base, want string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, raw := getBody(t, base+"/metrics")
		if strings.Contains(string(raw), want+"\n") {
			return string(raw)
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q:\n%s", want, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// maskExposition blanks the sample values that depend on wall time — every
// *_seconds_bucket and *_seconds_sum sample — so the rest of a scrape
// compares byte for byte.
func maskExposition(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, ln := range lines {
		name := ln[:strings.IndexAny(ln+" ", "{ ")]
		if strings.HasSuffix(name, "_seconds_bucket") || strings.HasSuffix(name, "_seconds_sum") {
			lines[i] = ln[:strings.LastIndexByte(ln, ' ')] + " <masked>\n"
		}
	}
	return strings.Join(lines, "")
}
