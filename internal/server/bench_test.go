package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/graph"
)

// The warm/cold pairs below quantify the LRU's effect end to end (HTTP
// included): cold servers have caching disabled, so every request pays the
// full decomposition/optimization; warm servers answer repeat requests from
// the resident entry — decompositions by lookup, ratio/sweep from the
// accumulated SplitSolver state. BENCH_server.json is generated from these
// via cmd/benchjson.

func benchServer(b *testing.B, cacheSize int) *httptest.Server {
	b.Helper()
	srv, err := New(Config{CacheSize: cacheSize, Logger: discardLogger()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url, path string, body any) {
	b.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		b.Fatal(err)
	}
}

func benchRing(n int) WireGraph {
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomRing(rng, n, graph.DistUniform)
	ws := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		ws[v] = EncodeRat(g.Weight(v))
	}
	return WireGraph{Ring: ws}
}

func BenchmarkServerDecomposeCold(b *testing.B) {
	ts := benchServer(b, -1)
	req := DecomposeRequest{Graph: benchRing(64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/decompose", req)
	}
}

func BenchmarkServerDecomposeWarm(b *testing.B) {
	ts := benchServer(b, 0)
	req := DecomposeRequest{Graph: benchRing(64)}
	benchPost(b, ts.URL, "/v1/decompose", req) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/decompose", req)
	}
}

func BenchmarkServerRatioCold(b *testing.B) {
	ts := benchServer(b, -1)
	req := RatioRequest{Graph: benchRing(32), V: 3, Grid: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/ratio", req)
	}
}

// BenchmarkServerRatioCertCold is BenchmarkServerRatioCold with a
// certificate on every answer: the ring's V = 3 utility curve has several
// structure pieces, so the answer carries piece bests and bracket ends, and
// the time includes building the certificate and the server's self-check.
func BenchmarkServerRatioCertCold(b *testing.B) {
	ts := benchServer(b, -1)
	req := RatioRequest{Graph: benchRing(32), V: 3, Grid: 16, Cert: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/ratio", req)
	}
}

func BenchmarkServerRatioWarm(b *testing.B) {
	ts := benchServer(b, 0)
	req := RatioRequest{Graph: benchRing(32), V: 3, Grid: 16}
	benchPost(b, ts.URL, "/v1/ratio", req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/ratio", req)
	}
}

func BenchmarkServerSweepCold(b *testing.B) {
	ts := benchServer(b, -1)
	req := SweepRequest{Graph: benchRing(32), V: 3, Grid: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/sweep", req)
	}
}

func BenchmarkServerSweepWarm(b *testing.B) {
	ts := benchServer(b, 0)
	req := SweepRequest{Graph: benchRing(32), V: 3, Grid: 32}
	benchPost(b, ts.URL, "/v1/sweep", req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, "/v1/sweep", req)
	}
}
