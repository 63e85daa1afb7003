// Sustained-throughput benchmarks, promised by the ROADMAP's raw-speed
// item: concurrent /v1/ratio load driven through the public retrying
// client (package client imports the server, so this file lives in the
// external test package). ns/op here is wall time per completed request
// across all concurrent workers — sustained RPS = 1e9 / ns_per_op — and
// each run also reports an explicit "rps" metric, which cmd/benchjson
// records into BENCH_server.json.
package server_test

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// newBenchService boots a real irshared handler with shedding disabled so
// the benchmark measures compute throughput, not 429 retry schedules.
func newBenchService(b *testing.B) *httptest.Server {
	b.Helper()
	srv, err := server.New(server.Config{
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxQueueDepth: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(func() { srv.Close() })
	return ts
}

// benchRings is the request mix: rings of different sizes and weights so
// the mixed benchmark spreads over several cache entries and batch keys.
func benchRings() []client.RatioRequest {
	rings := [][]string{
		{"1", "2", "3", "4", "5"},
		{"7/2", "1", "1/3", "9", "2", "2"},
		{"100", "1", "1", "1", "1", "1", "1", "1"},
		{"3", "1", "2", "1", "5"},
	}
	reqs := make([]client.RatioRequest, len(rings))
	for i, ws := range rings {
		reqs[i] = client.RatioRequest{Graph: client.Graph{Ring: ws}, V: i % len(ws), Grid: 16}
	}
	return reqs
}

func runSustainedRatio(b *testing.B, reqs []client.RatioRequest) {
	ts := newBenchService(b)
	c := client.New(ts.URL,
		client.WithMaxAttempts(8),
		client.WithBackoff(time.Millisecond, 50*time.Millisecond),
		client.WithSeed(7))
	ctx := context.Background()
	// Warm each instance once so every measured request exercises the
	// steady state (resident cache entry, memoized answer).
	for i := range reqs {
		if _, err := c.Ratio(ctx, &reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := reqs[int(next.Add(1))%len(reqs)]
			if _, err := c.Ratio(ctx, &req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "rps")
	}
}

// BenchmarkServerSustainedRatioRPS hammers one resident instance from
// GOMAXPROCS client goroutines: the upper bound of /v1/ratio throughput,
// where every request reads the instance's memoized answer.
func BenchmarkServerSustainedRatioRPS(b *testing.B) {
	runSustainedRatio(b, benchRings()[:1])
}

// BenchmarkServerSustainedRatioRPSMixed rotates over four distinct rings,
// so requests spread across cache entries — closer to a production mix
// than the single-instance ceiling.
func BenchmarkServerSustainedRatioRPSMixed(b *testing.B) {
	runSustainedRatio(b, benchRings())
}
