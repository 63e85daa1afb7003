package client

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
)

// newService boots a real irshared server on an httptest listener.
func newService(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return ts
}

// TestClientAgainstRealServer exercises every endpoint end to end through
// the retrying client against the actual service handler.
func TestClientAgainstRealServer(t *testing.T) {
	ts := newService(t, server.Config{MaxQueueDepth: -1})
	c := New(ts.URL, fastBackoff(), WithSeed(1))
	ctx := context.Background()
	ring := Graph{Ring: []string{"1", "2", "3", "4", "5"}}

	dec, err := c.Decompose(ctx, &DecomposeRequest{Graph: ring})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Pairs) == 0 || len(dec.Vertices) != 5 {
		t.Fatalf("decompose: %+v", dec)
	}

	alloc, err := c.Allocate(ctx, &AllocateRequest{Graph: ring})
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Utilities) != 5 {
		t.Fatalf("allocate: %+v", alloc)
	}

	utils, err := c.Utilities(ctx, &UtilitiesRequest{Graph: ring})
	if err != nil {
		t.Fatal(err)
	}
	if utils.TotalWeight != "15" {
		t.Fatalf("utilities total weight %q, want 15", utils.TotalWeight)
	}

	ratio, err := c.Ratio(ctx, &RatioRequest{Graph: ring, V: 2, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !ratio.LeqTwo {
		t.Fatalf("ratio %q exceeds 2", ratio.Ratio)
	}

	sweep, err := c.Sweep(ctx, &SweepRequest{Graph: ring, V: 2, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Partial || len(sweep.Points) != 9 {
		t.Fatalf("sweep: partial=%v points=%d", sweep.Partial, len(sweep.Points))
	}

	all, err := c.SweepAll(ctx, &SweepRequest{Graph: ring, V: 2, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Points) != len(sweep.Points) || all.Ratio != sweep.Ratio || all.BestU != sweep.BestU {
		t.Fatalf("SweepAll diverged from Sweep: %+v vs %+v", all, sweep)
	}
	for i := range all.Points {
		if all.Points[i] != sweep.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, all.Points[i], sweep.Points[i])
		}
	}

	// Error mapping: a non-ring ratio request is a non-retryable 400.
	_, err = c.Ratio(ctx, &RatioRequest{Graph: Graph{Path: []string{"1", "2"}}})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != server.CodeNotRing {
		t.Fatalf("want not_ring APIError, got %v", err)
	}
}

// TestSweepAllResumesAcrossTimeouts runs a sweep against a server whose
// request timeout is far too small for the whole grid, forcing partial
// responses, and checks the client's automatic resumption reassembles the
// exact result an unconstrained server produces.
func TestSweepAllResumesAcrossTimeouts(t *testing.T) {
	ring := Graph{Ring: []string{"1", "3/2", "2", "1/2", "5", "7/3", "4"}}
	const grid = 96

	reference := newService(t, server.Config{MaxQueueDepth: -1})
	want, err := New(reference.URL, WithSeed(1)).Sweep(context.Background(), &SweepRequest{Graph: ring, V: 1, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if want.Partial {
		t.Fatal("reference sweep unexpectedly partial")
	}

	tight := newService(t, server.Config{MaxQueueDepth: -1, RequestTimeout: 30 * time.Millisecond})
	var partials int
	c := New(tight.URL, WithSeed(7), WithBackoff(time.Millisecond, 10*time.Millisecond), WithMaxAttempts(50),
		WithRetryHook(func(int, error, time.Duration) { partials++ }))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := c.SweepAll(ctx, &SweepRequest{Graph: ring, V: 1, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("resumed sweep has %d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d: resumed %+v != reference %+v", i, got.Points[i], want.Points[i])
		}
	}
	if got.BestW1 != want.BestW1 || got.BestU != want.BestU || got.Ratio != want.Ratio || got.Honest != want.Honest {
		t.Fatalf("resumed summary differs:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestResumeTokenRejectedForDifferentRequest checks the server-side token
// validation through the client: a token minted for one (graph, v, grid) is
// rejected with code partial_result when replayed against another.
func TestResumeTokenRejectedForDifferentRequest(t *testing.T) {
	// Every grid point sleeps 1ms, so a 512-point sweep cannot finish
	// within the 20ms request timeout however fast the solver is.
	slow, err := fault.New(1, fault.Rule{Site: fault.SiteSweepPoint, Kind: fault.KindLatency, Every: 1, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := newService(t, server.Config{MaxQueueDepth: -1, RequestTimeout: 20 * time.Millisecond, Chaos: slow})
	c := New(ts.URL, WithSeed(3), WithBackoff(time.Millisecond, 10*time.Millisecond), WithMaxAttempts(20))
	ring := Graph{Ring: []string{"1", "2", "3", "4", "5", "6", "7", "8"}}
	ctx := context.Background()

	// Mint a token by sweeping a big grid against the tight timeout.
	resp, err := c.Sweep(ctx, &SweepRequest{Graph: ring, V: 0, Grid: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || resp.ResumeToken == "" {
		t.Fatalf("slowed 512-point sweep finished within 20ms: partial=%v token=%q", resp.Partial, resp.ResumeToken)
	}
	_, err = c.Sweep(ctx, &SweepRequest{Graph: ring, V: 1, Grid: 4, Resume: resp.ResumeToken})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != server.CodePartialResult || apiErr.Status != 400 {
		t.Fatalf("want partial_result 400, got %v", err)
	}
}
