package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/fault"
)

// ratioCounts reads the three counters one answered /v1/ratio lands in:
// a batch run, a batch join, or a memo hit.
func ratioCounts(s *Server) (runs, joins, hits int64) {
	return s.batch.runs.Load(), s.batch.joins.Load(), s.metrics.ratioMemoHits.Load()
}

// optimizeSpans returns how many core.optimize spans the collector has
// ingested. A batch trace is finished before its answer is returned, so the
// count is settled once a ratio response arrives.
func optimizeSpans(t *testing.T, base string) int {
	t.Helper()
	const series = `irshared_stage_seconds_count{stage="core.optimize"} `
	for _, line := range strings.Split(scrapeUntil(t, base, nil), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s%s: %v", series, v, err)
			}
			return n
		}
	}
	return 0
}

// TestRatioMemoAnswersLikeColdServer: a repeated /v1/ratio is answered from
// its cache entry's memo, with the bytes of its first answer and of a
// cache-disabled server, for the exact optimizer (bd) and for the grid
// mechanisms. The hit runs no batch, opens no optimizer trace, and its
// compute span names the memo and the trace of the run it reuses.
func TestRatioMemoAnswersLikeColdServer(t *testing.T) {
	ring := WireGraph{Ring: []string{"3", "1", "2", "1", "5", "2"}}
	_, cold := newTestServer(t, Config{CacheSize: -1})
	srv, ts := newTestServer(t, Config{})
	for _, mech := range []string{"bd", "pr", "eqsplit"} {
		req := RatioRequest{Graph: ring, V: 1, Grid: 8, Mechanism: mech}
		status, want := postJSON(t, cold.URL, "/v1/ratio", req)
		if status != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", mech, status, want)
		}
		status, first, firstID := postTraced(t, ts.URL, "/v1/ratio", req)
		if status != http.StatusOK || !bytes.Equal(first, want) {
			t.Fatalf("%s: first answer (status %d) differs from the cache-disabled server:\n%s\n%s", mech, status, first, want)
		}
		runs, joins, hits := ratioCounts(srv)
		spans := optimizeSpans(t, ts.URL)

		status, again, againID := postTraced(t, ts.URL, "/v1/ratio", req)
		if status != http.StatusOK || !bytes.Equal(again, first) {
			t.Fatalf("%s: repeated answer (status %d) differs from the first:\n%s\n%s", mech, status, again, first)
		}
		r2, j2, h2 := ratioCounts(srv)
		if r2 != runs || j2 != joins || h2 != hits+1 {
			t.Fatalf("%s: repeat moved runs %d→%d, joins %d→%d, memo hits %d→%d; want one memo hit only",
				mech, runs, r2, joins, j2, hits, h2)
		}
		if got := optimizeSpans(t, ts.URL); got != spans {
			t.Fatalf("%s: repeat ran the optimizer: core.optimize spans %d→%d", mech, spans, got)
		}

		_, firstSnap := getTrace(t, ts.URL, firstID)
		_, againSnap := getTrace(t, ts.URL, againID)
		if firstSnap == nil || againSnap == nil {
			t.Fatalf("%s: request traces %d, %d not retrievable", mech, firstID, againID)
		}
		opened, hit := firstSnap.Root.Find("server.compute"), againSnap.Root.Find("server.compute")
		if opened.Counter("batch_opened") != 1 || hit.Counter("ratio_memo_hit") != 1 ||
			hit.Counter("batch_opened")+hit.Counter("batch_joined") != 0 {
			t.Fatalf("%s: compute span markers: first %+v, repeat %+v", mech, opened.Counters, hit.Counters)
		}
		if hit.Attr("batch_trace") != opened.Attr("batch_trace") {
			t.Fatalf("%s: repeat names batch trace %q, the run was %q", mech, hit.Attr("batch_trace"), opened.Attr("batch_trace"))
		}
		if exact := mech == "bd"; exact != (opened.Attr("batch_trace") != "") {
			t.Fatalf("%s: batch_trace %q on the run", mech, opened.Attr("batch_trace"))
		}
	}
}

// TestRatioMemoSkipsFailedBatch: a batch failed by an injected fault stores
// nothing, so the retry opens a batch of its own and succeeds, and only
// then does a repeat hit the memo.
func TestRatioMemoSkipsFailedBatch(t *testing.T) {
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteServerBatch, Kind: fault.KindError, Every: 1, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Chaos: inj})
	req := RatioRequest{Graph: certTestRing, V: 2, Grid: 8}
	if status, raw := postJSON(t, ts.URL, "/v1/ratio", req); status != http.StatusServiceUnavailable {
		t.Fatalf("faulted batch: status %d, want 503: %s", status, raw)
	}
	status, first := postJSON(t, ts.URL, "/v1/ratio", req)
	if status != http.StatusOK {
		t.Fatalf("retry: status %d: %s", status, first)
	}
	if runs, joins, hits := ratioCounts(srv); runs != 2 || joins != 0 || hits != 0 {
		t.Fatalf("after fault and retry: runs %d, joins %d, memo hits %d; want 2, 0, 0", runs, joins, hits)
	}
	if status, again := postJSON(t, ts.URL, "/v1/ratio", req); status != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("repeat: status %d, answer differs:\n%s\n%s", status, again, first)
	}
	if runs, _, hits := ratioCounts(srv); runs != 2 || hits != 1 {
		t.Fatalf("repeat: runs %d, memo hits %d; want 2, 1", runs, hits)
	}
}

// TestRatioMemoEvictedWithEntry: the memo lives on its cache entry, so an
// LRU eviction drops it and the next request for the ring runs again.
func TestRatioMemoEvictedWithEntry(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 1})
	a := RatioRequest{Graph: WireGraph{Ring: []string{"1", "2", "3", "4"}}, V: 0, Grid: 8}
	b := RatioRequest{Graph: WireGraph{Ring: []string{"4", "1", "1", "2"}}, V: 0, Grid: 8}
	_, first := postJSON(t, ts.URL, "/v1/ratio", a)
	postJSON(t, ts.URL, "/v1/ratio", b)
	status, third := postJSON(t, ts.URL, "/v1/ratio", a)
	if status != http.StatusOK || !bytes.Equal(third, first) {
		t.Fatalf("A after eviction: status %d, answer differs:\n%s\n%s", status, third, first)
	}
	if runs, _, hits := ratioCounts(srv); runs != 3 || hits != 0 {
		t.Fatalf("A, B, A through a one-entry cache: runs %d, memo hits %d; want 3, 0", runs, hits)
	}
}

// TestRatioMemoCertStillSelfChecked: a certified request that hits the memo
// still builds its own certificate and runs the server's self-check, so a
// corrupted certificate answers cert_invalid, and an intact one matches the
// certificate of the run.
func TestRatioMemoCertStillSelfChecked(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var corrupt atomic.Bool
	srv.corruptCert = func(c any) {
		if rc, ok := c.(*cert.RatioCert); ok && corrupt.Load() {
			rc.Ratio = "3"
		}
	}
	req := RatioRequest{Graph: certTestRing, V: 0, Grid: 8, Cert: true}
	status, first := postJSON(t, ts.URL, "/v1/ratio", req)
	if status != http.StatusOK {
		t.Fatalf("certified run: status %d: %s", status, first)
	}
	corrupt.Store(true)
	status, raw := postJSON(t, ts.URL, "/v1/ratio", req)
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusInternalServerError || e.Code != CodeCertInvalid {
		t.Fatalf("corrupted certificate on a memo hit: status %d: %s", status, raw)
	}
	corrupt.Store(false)
	if status, again := postJSON(t, ts.URL, "/v1/ratio", req); status != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("intact certificate on a memo hit: status %d, differs:\n%s\n%s", status, again, first)
	}
	if runs, _, hits := ratioCounts(srv); runs != 1 || hits != 2 {
		t.Fatalf("runs %d, memo hits %d; want 1, 2", runs, hits)
	}
}
