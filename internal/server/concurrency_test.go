package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestConcurrentMixedEndpoints hammers one cached server with mixed
// endpoint traffic from many goroutines and asserts every 200 answer is
// byte-identical to the cold (cache-disabled) answer for the same request.
// Run under -race this is the shared-state torture test: all goroutines
// funnel into the same cache entries, solver instances and batcher.
func TestConcurrentMixedEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var gs []*graph.Graph
	for i := 0; i < 4; i++ {
		gs = append(gs, graph.RandomRing(rng, 5+i, graph.WeightDist(i%4)))
	}

	type request struct {
		path string
		body any
	}
	var reqs []request
	for gi, g := range gs {
		wg := wireOf(g)
		reqs = append(reqs,
			request{"/v1/decompose", DecomposeRequest{Graph: wg}},
			request{"/v1/utilities", UtilitiesRequest{Graph: wg}},
			request{"/v1/allocate", AllocateRequest{Graph: wg}},
			request{"/v1/ratio", RatioRequest{Graph: wg, V: gi % g.N(), Grid: 8}},
			request{"/v1/sweep", SweepRequest{Graph: wg, V: gi % g.N(), Grid: 8}},
		)
	}

	// Cold truth: every request answered by a cache-disabled server.
	_, cold := newTestServer(t, Config{CacheSize: -1})
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		status, raw := postJSON(t, cold.URL, rq.path, rq.body)
		if status != http.StatusOK {
			t.Fatalf("cold %s: status %d: %s", rq.path, status, raw)
		}
		want[i] = raw
	}

	_, warm := newTestServer(t, Config{PoolSize: 4, BatchWindow: time.Millisecond, MaxQueueDepth: -1})
	const workers = 24
	const iters = 12
	var wgrp sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wgrp.Add(1)
		go func(seed int64) {
			defer wgrp.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				i := rng.Intn(len(reqs))
				blob, _ := json.Marshal(reqs[i].body)
				resp, err := http.Post(warm.URL+reqs[i].path, "application/json", bytes.NewReader(blob))
				if err != nil {
					errCh <- fmt.Errorf("%s: %v", reqs[i].path, err)
					return
				}
				raw := make([]byte, 0, len(want[i]))
				buf := make([]byte, 4096)
				for {
					n, err := resp.Body.Read(buf)
					raw = append(raw, buf[:n]...)
					if err != nil {
						break
					}
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("%s: status %d: %s", reqs[i].path, resp.StatusCode, raw)
					return
				}
				if !bytes.Equal(raw, want[i]) {
					errCh <- fmt.Errorf("%s: warm answer differs from cold:\nwarm: %s\ncold: %s", reqs[i].path, raw, want[i])
					return
				}
			}
		}(int64(w + 1))
	}
	wgrp.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestCancellationMidDinkelbach cancels a ratio request partway through a
// long optimization on a shared cache entry, then re-asks for the full
// answer on the same server and checks it against a fresh in-process
// computation — proving a canceled Dinkelbach run leaves no partial state
// behind in the entry's core.Instance or SplitSolver caches.
func TestCancellationMidDinkelbach(t *testing.T) {
	if testing.Short() {
		t.Skip("long optimization")
	}
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomRing(rng, 80, graph.DistUniform)
	const v, grid = 0, 16
	wg := wireOf(g)

	srv, ts := newTestServer(t, Config{})
	blob, _ := json.Marshal(RatioRequest{Graph: wg, V: v, Grid: grid})

	// Fire several requests that get canceled at staggered points of the
	// computation. All hit the same cache entry / instance.
	for _, after := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), after)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/ratio", bytes.NewReader(blob))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			// The computation beat the deadline; that's fine too.
			resp.Body.Close()
		}
		cancel()
	}

	// Now the real request on the same (possibly partially warmed) entry.
	var got RatioResponse
	mustPost(t, ts.URL, "/v1/ratio", RatioRequest{Graph: wg, V: v, Grid: grid}, &got)

	in, err := core.NewInstance(g, v)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.Optimize(core.OptimizeOptions{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if got.BestU != EncodeRat(opt.BestU) || got.BestW1 != EncodeRat(opt.BestW1) || got.Ratio != EncodeRat(opt.Ratio) {
		t.Fatalf("after cancellations: (%s at %s, ratio %s), want (%s at %s, ratio %s)",
			got.BestU, got.BestW1, got.Ratio, EncodeRat(opt.BestU), EncodeRat(opt.BestW1), EncodeRat(opt.Ratio))
	}
	if srv.cache.len() == 0 {
		t.Fatal("expected the instance to be resident in the cache")
	}
}

// TestBatchingJoinsConcurrentRatios checks that simultaneous identical
// ratio requests coalesce into fewer optimizer runs and all get the same
// answer.
func TestBatchingJoinsConcurrentRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomRing(rng, 40, graph.DistUniform)
	wg := wireOf(g)
	srv, ts := newTestServer(t, Config{BatchWindow: 20 * time.Millisecond, MaxQueueDepth: -1})

	const callers = 8
	bodies := make([][]byte, callers)
	var wgrp sync.WaitGroup
	for c := 0; c < callers; c++ {
		wgrp.Add(1)
		go func(c int) {
			defer wgrp.Done()
			status, raw := postJSON(t, ts.URL, "/v1/ratio", RatioRequest{Graph: wg, V: 1, Grid: 8})
			if status == http.StatusOK {
				bodies[c] = raw
			}
		}(c)
	}
	wgrp.Wait()
	var first []byte
	for c, b := range bodies {
		if b == nil {
			t.Fatalf("caller %d failed", c)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("caller %d got a different answer:\n%s\n%s", c, first, b)
		}
	}
	// Callers that wait for a pool slot until the run has finished read its
	// answer from the entry's memo instead.
	runs, joins, hits := ratioCounts(srv)
	if runs+joins+hits != callers {
		t.Fatalf("runs %d + joins %d + memo hits %d != %d callers", runs, joins, hits, callers)
	}
	if joins == 0 {
		t.Logf("no callers joined a batch (timing-dependent); runs=%d", runs)
	}
}
