package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sybil"
)

// newTestServer starts an httptest server over a fresh Server. Request
// logs are discarded: the tests assert on responses and metrics.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// postJSON posts body to path and returns the status and raw response body.
func postJSON(t *testing.T, base, path string, body any) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// mustPost posts and decodes a 200 response into out, returning the raw body.
func mustPost(t *testing.T, base, path string, body, out any) []byte {
	t.Helper()
	status, raw := postJSON(t, base, path, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decode %s response: %v\n%s", path, err, raw)
	}
	return raw
}

// wireOf converts a graph to its explicit wire form.
func wireOf(g *graph.Graph) WireGraph {
	ws := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		ws[v] = EncodeRat(g.Weight(v))
	}
	return WireGraph{N: g.N(), Weights: ws, Edges: g.Edges()}
}

// TestDifferentialHTTP replays random ring/path/tree instances through the
// HTTP API — with the cache enabled and disabled — and asserts the answers
// are bit-identical to the in-process bottleneck.Decompose / core.Optimize
// results, across every applicable engine. The exact-rational wire format
// makes "bit-identical" literal: the strings must match byte for byte.
func TestDifferentialHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replay is slow")
	}
	rng := rand.New(rand.NewSource(20260805))
	_, warm := newTestServer(t, Config{})              // default LRU
	_, cold := newTestServer(t, Config{CacheSize: -1}) // cache disabled
	bases := []struct {
		name string
		url  string
	}{{"cache", ""}, {"nocache", ""}}

	warmURL, coldURL := warm.URL, cold.URL
	bases[0].url, bases[1].url = warmURL, coldURL

	dists := []graph.WeightDist{graph.DistUniform, graph.DistSkewed, graph.DistPowers, graph.DistUnit}
	const instances = 100
	for i := 0; i < instances; i++ {
		n := 3 + rng.Intn(6)
		dist := dists[i%len(dists)]
		var g *graph.Graph
		var kind string
		engines := []string{"auto", "flow", "brute"}
		switch i % 3 {
		case 0:
			kind = "ring"
			g = graph.RandomRing(rng, n, dist)
			engines = append(engines, "path-dp")
		case 1:
			kind = "path"
			g = graph.Path(graph.RandomWeights(rng, n, dist))
			engines = append(engines, "path-dp")
		default:
			kind = "tree"
			g = graph.RandomTree(rng, n, dist)
		}
		t.Run(fmt.Sprintf("%03d_%s_n%d", i, kind, n), func(t *testing.T) {
			wg := wireOf(g)
			for _, engine := range engines {
				want, err := bottleneck.DecomposeWith(g, mustEngine(t, engine))
				if err != nil {
					t.Fatalf("in-process decompose (%s): %v", engine, err)
				}
				var prevRaw []byte
				for _, b := range bases {
					var got DecomposeResponse
					raw := mustPost(t, b.url, "/v1/decompose", DecomposeRequest{Graph: wg, Engine: engine}, &got)
					if prevRaw != nil && !bytes.Equal(raw, prevRaw) {
						t.Fatalf("engine %s: cache on/off bodies differ:\n%s\n%s", engine, prevRaw, raw)
					}
					prevRaw = raw
					checkDecompose(t, engine+"/"+b.name, g, want, &got)
				}
			}

			// Utilities and allocation under the default engine.
			d, err := bottleneck.Decompose(g)
			if err != nil {
				t.Fatalf("in-process decompose: %v", err)
			}
			a, err := allocation.Compute(g, d)
			if err != nil {
				t.Fatalf("in-process allocation: %v", err)
			}
			for _, b := range bases {
				var ur UtilitiesResponse
				mustPost(t, b.url, "/v1/utilities", UtilitiesRequest{Graph: wg}, &ur)
				for v, u := range d.Utilities(g) {
					if ur.Utilities[v] != EncodeRat(u) {
						t.Fatalf("%s: utilities[%d] = %s, want %s", b.name, v, ur.Utilities[v], EncodeRat(u))
					}
				}
				var ar AllocateResponse
				mustPost(t, b.url, "/v1/allocate", AllocateRequest{Graph: wg}, &ar)
				for v := 0; v < g.N(); v++ {
					if ar.Utilities[v] != EncodeRat(a.Utility(v)) {
						t.Fatalf("%s: alloc utilities[%d] = %s, want %s", b.name, v, ar.Utilities[v], EncodeRat(a.Utility(v)))
					}
				}
				for _, tr := range ar.Transfers {
					if got, want := tr.Amount, EncodeRat(a.Get(tr.From, tr.To)); got != want {
						t.Fatalf("%s: transfer %d->%d = %s, want %s", b.name, tr.From, tr.To, got, want)
					}
				}
			}

			if kind != "ring" {
				return
			}
			// Ratio and sweep for one agent on ring instances.
			v := rng.Intn(n)
			const grid = 8
			in, err := core.NewInstance(g, v)
			if err != nil {
				t.Fatalf("in-process NewInstance: %v", err)
			}
			opt, err := in.Optimize(core.OptimizeOptions{Grid: grid})
			if err != nil {
				t.Fatalf("in-process Optimize: %v", err)
			}
			sw, err := sybil.RingSweep(g, v, sybil.SweepOptions{Grid: grid})
			if err != nil {
				t.Fatalf("in-process RingSweep: %v", err)
			}
			for _, b := range bases {
				var rr RatioResponse
				mustPost(t, b.url, "/v1/ratio", RatioRequest{Graph: wg, V: v, Grid: grid}, &rr)
				if rr.Honest != EncodeRat(in.HonestU) {
					t.Fatalf("%s: honest = %s, want %s", b.name, rr.Honest, EncodeRat(in.HonestU))
				}
				if rr.BestU != EncodeRat(opt.BestU) || rr.BestW1 != EncodeRat(opt.BestW1) {
					t.Fatalf("%s: best (%s at %s), want (%s at %s)", b.name, rr.BestU, rr.BestW1, EncodeRat(opt.BestU), EncodeRat(opt.BestW1))
				}
				if rr.Ratio != EncodeRat(opt.Ratio) {
					t.Fatalf("%s: ratio = %s, want %s", b.name, rr.Ratio, EncodeRat(opt.Ratio))
				}
				if !rr.LeqTwo {
					t.Fatalf("%s: ratio %s reported > 2 (Theorem 8 violation)", b.name, rr.Ratio)
				}

				var sr SweepResponse
				mustPost(t, b.url, "/v1/sweep", SweepRequest{Graph: wg, V: v, Grid: grid}, &sr)
				if len(sr.Points) != len(sw.Points) {
					t.Fatalf("%s: %d sweep points, want %d", b.name, len(sr.Points), len(sw.Points))
				}
				for j, p := range sw.Points {
					if sr.Points[j].W1 != EncodeRat(p.W1) || sr.Points[j].U != EncodeRat(p.U) {
						t.Fatalf("%s: sweep point %d = (%s, %s), want (%s, %s)",
							b.name, j, sr.Points[j].W1, sr.Points[j].U, EncodeRat(p.W1), EncodeRat(p.U))
					}
				}
				if sr.BestW1 != EncodeRat(sw.BestW1) || sr.BestU != EncodeRat(sw.BestU) || sr.Ratio != EncodeRat(sw.Ratio) {
					t.Fatalf("%s: sweep summary (%s, %s, %s), want (%s, %s, %s)",
						b.name, sr.BestW1, sr.BestU, sr.Ratio, EncodeRat(sw.BestW1), EncodeRat(sw.BestU), EncodeRat(sw.Ratio))
				}
			}
		})
	}
}

func mustEngine(t *testing.T, s string) bottleneck.Engine {
	t.Helper()
	e, err := bottleneck.ParseEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkDecompose compares an API decomposition against the in-process one.
func checkDecompose(t *testing.T, label string, g *graph.Graph, want *bottleneck.Decomposition, got *DecomposeResponse) {
	t.Helper()
	if got.Signature != want.StructureSignature() {
		t.Fatalf("%s: signature %q, want %q", label, got.Signature, want.StructureSignature())
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i, p := range want.Pairs {
		gp := got.Pairs[i]
		if gp.Alpha != EncodeRat(p.Alpha) {
			t.Fatalf("%s: pair %d alpha %s, want %s", label, i, gp.Alpha, EncodeRat(p.Alpha))
		}
		if !equalInts(gp.B, p.B) || !equalInts(gp.C, p.C) {
			t.Fatalf("%s: pair %d sets B=%v C=%v, want B=%v C=%v", label, i, gp.B, gp.C, p.B, p.C)
		}
	}
	for v := 0; v < g.N(); v++ {
		wv := got.Vertices[v]
		if wv.Class != want.ClassOf(v).String() {
			t.Fatalf("%s: vertex %d class %s, want %s", label, v, wv.Class, want.ClassOf(v))
		}
		if wv.Alpha != EncodeRat(want.AlphaOf(v)) {
			t.Fatalf("%s: vertex %d alpha %s, want %s", label, v, wv.Alpha, EncodeRat(want.AlphaOf(v)))
		}
		if wv.Utility != EncodeRat(want.Utility(g, v)) {
			t.Fatalf("%s: vertex %d utility %s, want %s", label, v, wv.Utility, EncodeRat(want.Utility(g, v)))
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
