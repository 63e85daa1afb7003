package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/server"
)

// chaosRules arms every registered injection site with a finite fault
// budget: deterministic 1/N triggers (plus one latency rule) whose limits
// guarantee the budget drains, so retries must converge. Panic rules cover
// both containment barriers — the handler barrier (server.compute) and the
// worker/batch barriers (sweep.point, maxflow.push escalation).
func chaosRules() []fault.Rule {
	return []fault.Rule{
		{Site: fault.SiteCacheGet, Kind: fault.KindError, Every: 7, Limit: 25},
		{Site: fault.SiteServerCompute, Kind: fault.KindError, Every: 9, Limit: 20},
		{Site: fault.SiteServerCompute, Kind: fault.KindPanic, Every: 23, Limit: 6},
		{Site: fault.SiteServerBatch, Kind: fault.KindError, Every: 2, Limit: 6},
		{Site: fault.SiteDinkelbach, Kind: fault.KindError, Every: 50, Limit: 15},
		{Site: fault.SiteMaxflowPush, Kind: fault.KindError, Every: 400, Limit: 10},
		{Site: fault.SiteSweepPoint, Kind: fault.KindError, Every: 11, Limit: 15},
		{Site: fault.SiteSweepPoint, Kind: fault.KindPanic, Every: 131, Limit: 4},
		{Site: fault.SiteScenarioPoint, Kind: fault.KindError, Every: 13, Limit: 10},
		{Site: fault.SiteJobsWAL, Kind: fault.KindError, Every: 4, Limit: 6},
		{Site: fault.SiteJobsRecover, Kind: fault.KindError, Every: 1, Limit: 2},
		{Site: "*", Kind: fault.KindLatency, Every: 100, Latency: 100 * time.Microsecond, Limit: 100},
	}
}

// backoffAudit lets the chaos clients skip every backoff wait — the replay
// would otherwise sleep through the server's whole-second Retry-After hints
// — while its retry hook checks that each chosen delay still honors the
// hint. floors counts the delays the hint raised.
type backoffAudit struct {
	t      *testing.T
	floors int
}

func (a *backoffAudit) hook(attempt int, err error, delay time.Duration) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter == 0 {
		return
	}
	if delay < apiErr.RetryAfter {
		a.t.Errorf("retry %d after %v chose %v, below the Retry-After floor %v", attempt, err, delay, apiErr.RetryAfter)
	}
	if delay == apiErr.RetryAfter {
		a.floors++
	}
}

// chaosClient is a retrying client for the chaos replay: every retry is
// audited by a, and no backoff waits.
func (a *backoffAudit) chaosClient(base string, seed int64) *Client {
	c := New(base, WithSeed(seed), WithMaxAttempts(30), WithBackoff(time.Millisecond, 4*time.Millisecond), WithRetryHook(a.hook))
	c.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	return c
}

// chaosJobsPhase runs the durable-jobs leg of the chaos replay: a sweep job
// driven to completion against WAL-append faults (bit-identical to the
// clean inline sweep), then a re-boot over the populated store that must
// survive injected recovery faults by retrying.
func chaosJobsPhase(t *testing.T, ctx context.Context, clean *Client, injector *fault.Injector, audit *backoffAudit) {
	t.Helper()
	dataDir := t.TempDir()
	cfg := server.Config{MaxQueueDepth: -1, Chaos: injector, DataDir: dataDir}

	// boot retries server.New until the recover-fault budget lets a boot
	// through; over a populated store each pending job is a jobs.recover hit.
	boot := func() (*server.Server, *httptest.Server) {
		for attempt := 1; ; attempt++ {
			srv, err := server.New(withDiscardLogger(cfg))
			if err == nil {
				return srv, httptest.NewServer(srv.Handler())
			}
			if attempt >= 20 {
				t.Fatalf("server boot did not converge under recovery faults: %v", err)
			}
		}
	}
	srv, ts := boot()
	jc := audit.chaosClient(ts.URL, 5)
	ring := Graph{Ring: []string{"1", "3/2", "2", "5", "7/3"}}

	// Drive one job to done: submissions retry through injected 503s, and a
	// job failed by a checkpoint-write fault restarts (from its checkpoint)
	// on resubmission.
	var job *Job
	for attempt := 1; ; attempt++ {
		sub, err := jc.SubmitSweep(ctx, &JobSubmitRequest{Graph: ring, V: 2, Grid: 16})
		if err != nil {
			t.Fatalf("chaos job submit: %v", err)
		}
		job, err = jc.WaitJob(ctx, sub.Job.ID)
		if err != nil {
			t.Fatalf("chaos job wait: %v", err)
		}
		if job.State == JobDone {
			break
		}
		if job.State != JobFailed {
			t.Fatalf("chaos job settled as %q (error %q)", job.State, job.Error)
		}
		if attempt >= 20 {
			t.Fatalf("chaos job did not converge: still failing with %q", job.Error)
		}
	}
	var got SweepResponse
	if err := json.Unmarshal(job.Result, &got); err != nil {
		t.Fatalf("chaos job result: %v", err)
	}
	want, err := clean.Sweep(ctx, &SweepRequest{Graph: ring, V: 2, Grid: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("job result diverged under chaos:\ngot:  %+v\nwant: %+v", got, want)
	}

	// Leave pending work behind so the re-boot's recovery has jobs to walk
	// (and faults to absorb), then boot again over the same store.
	if _, err := jc.SubmitSweep(ctx, &JobSubmitRequest{Graph: ring, V: 0, Grid: 2048}); err != nil {
		t.Fatalf("chaos big job submit: %v", err)
	}
	if _, err := jc.SubmitSweep(ctx, &JobSubmitRequest{Graph: ring, V: 1, Grid: 2048}); err != nil {
		t.Fatalf("chaos big job submit: %v", err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close chaos jobs server: %v", err)
	}
	srv2, ts2 := boot()
	t.Cleanup(func() { ts2.Close(); srv2.Close() })

	// The done job survived both the crash-free shutdown and the faulted
	// recovery bit-identically.
	after, err := New(ts2.URL, WithSeed(6), WithMaxAttempts(30),
		WithBackoff(time.Millisecond, 4*time.Millisecond)).GetJob(ctx, job.ID)
	if err != nil {
		t.Fatalf("get job after reboot: %v", err)
	}
	if after.State != JobDone || string(after.Result) != string(job.Result) {
		t.Fatalf("job changed across reboot: state %q", after.State)
	}
}

// withDiscardLogger fills in a quiet logger without mutating the shared cfg.
func withDiscardLogger(cfg server.Config) server.Config {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return cfg
}

// wireOf renders a graph in explicit wire form.
func wireOf(g *graph.Graph) Graph {
	ws := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		ws[v] = g.Weight(v).String()
	}
	return Graph{N: g.N(), Weights: ws, Edges: g.Edges()}
}

// TestChaosReplayConvergesBitIdentical replays the 100-instance differential
// corpus against a server with seeded fault injection armed at every site,
// through the retrying client. The chaos clients skip their backoff waits
// (see backoffAudit), so the replay spends no time asleep. The assertions
// are the resilience contract:
//
//   - the server process never dies (an escaped panic would kill this test
//     binary — both servers run in-process),
//   - every request eventually succeeds (the fault budget is finite and
//     retries advance the hit counters), and
//   - every answer is bit-identical to the same request against a fault-free
//     server: injection may delay an answer, never change it.
func TestChaosReplayConvergesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	injector, err := fault.New(20260805, chaosRules()...)
	if err != nil {
		t.Fatal(err)
	}
	clean := newService(t, server.Config{MaxQueueDepth: -1})
	chaotic := newService(t, server.Config{MaxQueueDepth: -1, Chaos: injector})

	ctx := context.Background()
	cc := New(clean.URL, WithSeed(1))
	audit := &backoffAudit{t: t}
	fc := audit.chaosClient(chaotic.URL, 99)

	// Same corpus as the server's differential suite: seed, sizes, shapes.
	rng := rand.New(rand.NewSource(20260805))
	dists := []graph.WeightDist{graph.DistUniform, graph.DistSkewed, graph.DistPowers, graph.DistUnit}
	const instances = 100
	for i := 0; i < instances; i++ {
		n := 3 + rng.Intn(6)
		dist := dists[i%len(dists)]
		var g *graph.Graph
		isRing := false
		switch i % 3 {
		case 0:
			g = graph.RandomRing(rng, n, dist)
			isRing = true
		case 1:
			g = graph.Path(graph.RandomWeights(rng, n, dist))
		default:
			g = graph.RandomTree(rng, n, dist)
		}
		wg := wireOf(g)

		// Engine flow keeps the max-flow kernels (and their escalated panic
		// containment) in the replay on every instance.
		wantDec, err := cc.Decompose(ctx, &DecomposeRequest{Graph: wg, Engine: "flow"})
		if err != nil {
			t.Fatalf("instance %d: clean decompose: %v", i, err)
		}
		gotDec, err := fc.Decompose(ctx, &DecomposeRequest{Graph: wg, Engine: "flow"})
		if err != nil {
			t.Fatalf("instance %d: chaos decompose did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotDec, wantDec) {
			t.Fatalf("instance %d: decompose diverged under chaos:\ngot:  %+v\nwant: %+v", i, gotDec, wantDec)
		}

		wantU, err := cc.Utilities(ctx, &UtilitiesRequest{Graph: wg})
		if err != nil {
			t.Fatalf("instance %d: clean utilities: %v", i, err)
		}
		gotU, err := fc.Utilities(ctx, &UtilitiesRequest{Graph: wg})
		if err != nil {
			t.Fatalf("instance %d: chaos utilities did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotU, wantU) {
			t.Fatalf("instance %d: utilities diverged under chaos:\ngot:  %+v\nwant: %+v", i, gotU, wantU)
		}

		if !isRing {
			continue
		}
		v := rng.Intn(n)
		const grid = 8
		wantR, err := cc.Ratio(ctx, &RatioRequest{Graph: wg, V: v, Grid: grid})
		if err != nil {
			t.Fatalf("instance %d: clean ratio: %v", i, err)
		}
		gotR, err := fc.Ratio(ctx, &RatioRequest{Graph: wg, V: v, Grid: grid})
		if err != nil {
			t.Fatalf("instance %d: chaos ratio did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("instance %d: ratio diverged under chaos:\ngot:  %+v\nwant: %+v", i, gotR, wantR)
		}

		wantS, err := cc.Sweep(ctx, &SweepRequest{Graph: wg, V: v, Grid: grid})
		if err != nil {
			t.Fatalf("instance %d: clean sweep: %v", i, err)
		}
		gotS, err := fc.SweepAll(ctx, &SweepRequest{Graph: wg, V: v, Grid: grid})
		if err != nil {
			t.Fatalf("instance %d: chaos sweep did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("instance %d: sweep diverged under chaos:\ngot:  %+v\nwant: %+v", i, gotS, wantS)
		}

		// A k-identity scenario scan keeps the scenario.point site in the
		// replay on every ring instance.
		screq := &ScenarioRequest{Kind: "ksybil", Graph: wg, V: v, K: 3, Grid: 4}
		wantSc, err := cc.Scenario(ctx, screq)
		if err != nil {
			t.Fatalf("instance %d: clean scenario: %v", i, err)
		}
		gotSc, err := fc.Scenario(ctx, screq)
		if err != nil {
			t.Fatalf("instance %d: chaos scenario did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotSc, wantSc) {
			t.Fatalf("instance %d: scenario diverged under chaos:\ngot:  %+v\nwant: %+v", i, gotSc, wantSc)
		}
	}

	// Durable jobs under the same fault budget. WAL-append faults fail
	// submissions (retried by the client) and checkpoint writes (failing the
	// job; resubmission restarts it from its checkpoint), and recover faults
	// abort boots over a populated store — all of which must converge once
	// the budget drains, with the final result still bit-identical.
	chaosJobsPhase(t, ctx, cc, injector, audit)

	// The chaos clients never waited, but the audit saw the Retry-After
	// floor set the delay of some retries.
	t.Logf("%d retries floored at Retry-After", audit.floors)
	if audit.floors == 0 {
		t.Error("no retry hit the Retry-After floor: the audit checked nothing")
	}

	// The replay must actually have exercised every site: a silent dead rule
	// would make the whole suite vacuous. The cluster.* sites live in the
	// router, not the server, so they cannot fire here — their chaos leg is
	// TestClusterChaosReplay in internal/cluster.
	stats := injector.Stats()
	for _, site := range fault.Sites() {
		if strings.HasPrefix(site, "cluster.") {
			continue
		}
		st, ok := stats[site]
		if !ok || st.Hits == 0 {
			t.Errorf("site %s was never hit", site)
		} else if st.Injected == 0 {
			t.Errorf("site %s was hit %d times but never injected", site, st.Hits)
		}
	}

	// And the contained panics must show up in the server's own accounting.
	resp, err := http.Get(chaotic.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`(?m)^irshared_panics_total (\d+)$`).FindSubmatch(raw)
	if m == nil {
		t.Fatal("no irshared_panics_total in /metrics")
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Error("panic rules fired but irshared_panics_total is 0")
	}
}
