// In-process cluster tests: three real irshared backends behind one Router,
// exercised through the public retrying client. The acceptance contract of
// the cluster subsystem lives here — hard-stopping a node mid-job re-places
// the job on a survivor from its last checkpoint with a bit-identical final
// result, and a backend answering with a corrupted certificate is
// quarantined while the request still succeeds via failover.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/server"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testNode is one in-process backend: a real server.Server behind a real
// HTTP listener, so the router exercises genuine transport failures when
// the node is hard-stopped.
type testNode struct {
	srv  *server.Server
	ts   *httptest.Server
	url  string
	once sync.Once
}

func startNode(t *testing.T, id string, cfg server.Config) *testNode {
	t.Helper()
	cfg.NodeID = id
	cfg.Logger = discardLogger()
	if cfg.MaxQueueDepth == 0 {
		cfg.MaxQueueDepth = -1
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("start node %s: %v", id, err)
	}
	ts := httptest.NewServer(srv.Handler())
	n := &testNode{srv: srv, ts: ts, url: ts.URL}
	t.Cleanup(n.stop)
	return n
}

// stop hard-stops the node: live connections are severed first, so in-flight
// proxied requests fail at the transport level exactly like a SIGKILL'd
// process, then the server's goroutines are drained in the background.
func (n *testNode) stop() {
	n.once.Do(func() {
		n.ts.CloseClientConnections()
		n.ts.Close()
		go n.srv.Close()
	})
}

// startRouter boots a Router with test-speed timings over the given nodes.
func startRouter(t *testing.T, cfg Config, nodes ...string) (*Router, *httptest.Server) {
	t.Helper()
	cfg.Nodes = nodes
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 2
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 500 * time.Millisecond
	}
	if cfg.RenewInterval == 0 {
		cfg.RenewInterval = 50 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return r, ts
}

func routerClient(url string) *client.Client {
	return client.New(url, client.WithMaxAttempts(30),
		client.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
}

// TestClusterKillRecoverBitIdentical is the headline acceptance test: a
// sweep job submitted through the router, its owning node hard-stopped
// mid-run, the job re-placed on a survivor seeded from the router's lease
// checkpoint — and the final result byte-identical to the same job run
// uninterrupted on a single node.
func TestClusterKillRecoverBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill/recover is slow")
	}
	// Slow every checkpoint write so the kill lands mid-sweep, not after a
	// sprint to done. Latency injection never alters results.
	slowWAL := func() *fault.Injector {
		inj, err := fault.New(1, fault.Rule{
			Site: fault.SiteJobsWAL, Kind: fault.KindLatency,
			Every: 1, Latency: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	nodes := make([]*testNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		nodes[i] = startNode(t, fmt.Sprintf("n%d", i+1),
			server.Config{DataDir: t.TempDir(), Chaos: slowWAL()})
		urls[i] = nodes[i].url
	}
	r, rts := startRouter(t, Config{}, urls...)
	rc := routerClient(rts.URL)
	ctx := context.Background()

	req := &client.JobSubmitRequest{
		Graph: client.Graph{Ring: []string{"1", "3/2", "2", "5", "7/3", "4"}},
		V:     1, Grid: 192,
	}
	sub, err := rc.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatalf("submit through router: %v", err)
	}
	id := sub.Job.ID

	// Wait until the router's lease has observed real progress: the re-placed
	// job must resume from a nonzero checkpoint for the test to mean anything.
	var owner string
	var observed int
	deadline := time.Now().Add(15 * time.Second)
	for owner == "" {
		if time.Now().After(deadline) {
			t.Fatalf("lease never observed progress; leases: %+v", r.Leases())
		}
		if ls, ok := r.leases.get(id); ok && len(ls.Points) >= 3 {
			owner, observed = ls.Node, len(ls.Points)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var victim *testNode
	for _, n := range nodes {
		if n.url == owner {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("lease owner %q is not a known node", owner)
	}
	victim.stop()
	t.Logf("killed owner %s with %d points checkpointed", owner, observed)

	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	final, err := rc.WaitJob(waitCtx, id)
	if err != nil {
		t.Fatalf("wait through router after kill: %v", err)
	}
	if final.State != client.JobDone {
		t.Fatalf("job settled as %q (error %q)", final.State, final.Error)
	}
	if got := r.leaseReplaced.Load(); got < 1 {
		t.Fatalf("lease_replacements_total = %d, want >= 1", got)
	}

	// Bit-identical to an uninterrupted single-node run of the same job.
	solo := startNode(t, "solo", server.Config{DataDir: t.TempDir()})
	sc := routerClient(solo.url)
	soloSub, err := sc.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	soloFinal, err := sc.WaitJob(ctx, soloSub.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if soloFinal.State != client.JobDone {
		t.Fatalf("solo job settled as %q", soloFinal.State)
	}
	if string(final.Result) != string(soloFinal.Result) {
		t.Fatalf("re-placed result diverged from single-node run:\ngot:  %s\nwant: %s",
			final.Result, soloFinal.Result)
	}

	// The lease is retired once the job is done; the supervision loop may
	// need one more pass to notice.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, ok := r.leases.get(id); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("done job's lease never retired: %+v", r.Leases())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tamperNode wraps a real backend and corrupts the certificate inside every
// /v1/ratio answer — a byzantine node that computes fine but lies about its
// proof. The router must catch it with cert.Check, quarantine it, and serve
// the request from a replica.
func tamperNode(t *testing.T, inner *testNode) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		inner.srv.Handler().ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if req.URL.Path == "/v1/ratio" && rec.Code == http.StatusOK {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err == nil {
				if c, ok := m["certificate"].(map[string]any); ok {
					c["ratio"] = "7919/13" // a claim no witness supports
					if mutated, err := json.Marshal(m); err == nil {
						body = mutated
					}
				}
			}
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCertRejectionQuarantinesAndFailsOver: a request placed on a backend
// whose certificate fails the router's solver-free check is transparently
// retried on the next replica, the lying node lands in quarantine, and the
// rejection counter records the event.
func TestCertRejectionQuarantinesAndFailsOver(t *testing.T) {
	honest1 := startNode(t, "h1", server.Config{})
	honest2 := startNode(t, "h2", server.Config{})
	evil := tamperNode(t, startNode(t, "evil", server.Config{}))

	r, rts := startRouter(t, Config{QuarantineFor: time.Hour},
		honest1.url, honest2.url, evil.URL)

	// Find a ring whose placement key lands on the tamper node first.
	var req *client.RatioRequest
	var key string
	for i := 0; i < 256 && req == nil; i++ {
		wg := client.Graph{Ring: []string{"1", "2", strconv.Itoa(3 + i)}}
		k, err := server.PlacementKey(&wg, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.ring.sequence(k)[0] == evil.URL {
			req = &client.RatioRequest{Graph: wg, V: 1, Grid: 8, Cert: true}
			key = k
		}
	}
	if req == nil {
		t.Fatal("no ring placed on the tamper node in 256 tries")
	}

	rc := client.New(rts.URL)
	resp, err := rc.Ratio(context.Background(), req)
	if err != nil {
		t.Fatalf("ratio through router with a lying primary: %v", err)
	}
	if resp.Certificate == nil {
		t.Fatal("answer carries no certificate")
	}
	if err := cert.Check(resp.Certificate); err != nil {
		t.Fatalf("forwarded certificate does not verify: %v", err)
	}
	if got := r.certRejections.Load(); got != 1 {
		t.Fatalf("cert_rejections_total = %d, want 1", got)
	}
	if got := r.failovers.Load(); got < 1 {
		t.Fatalf("failovers_total = %d, want >= 1", got)
	}
	quarantined := false
	for _, m := range r.Members() {
		if m.URL == evil.URL {
			quarantined = m.State == StateQuarantined
		}
	}
	if !quarantined {
		t.Fatalf("tamper node not quarantined: %+v", r.Members())
	}
	// Placement now routes around the quarantined node entirely.
	for _, n := range r.aliveSequence(key) {
		if n == evil.URL {
			t.Fatal("quarantined node still in the alive sequence")
		}
	}
	// And the same request keeps succeeding without touching it.
	before := r.certRejections.Load()
	if _, err := rc.Ratio(context.Background(), req); err != nil {
		t.Fatalf("ratio after quarantine: %v", err)
	}
	if r.certRejections.Load() != before {
		t.Fatal("quarantined node was asked again")
	}
}

// lyingNode wraps a real backend and rewrites every 200 answer on path
// with lie: a byzantine node whose certificates still pass cert.Check
// while its answers do not match them, or the request.
func lyingNode(t *testing.T, inner *testNode, path string, lie func(answer map[string]any)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		inner.srv.Handler().ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if req.URL.Path == path && rec.Code == http.StatusOK {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Errorf("lying node: %v", err)
			}
			lie(m)
			body, _ = json.Marshal(m)
		}
		for k, vs := range rec.Header() {
			if k != "Content-Length" {
				w.Header()[k] = vs
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCertRejectionBindsAnswer: the certificate gate rejects an answer
// whose certificate verifies but is not a proof of this answer to this
// request — a rewritten ratio, a dropped certificate, the certified answer
// of another ring, a rewritten sweep point — exactly like a failed check:
// counted, the node quarantined, and the request answered honestly by the
// failover replica.
func TestCertRejectionBindsAnswer(t *testing.T) {
	// The honest certified answer for another ring, replayed in case (c).
	var replay map[string]any
	other := startNode(t, "other", server.Config{})
	_, raw := postAnswer(t, other.url+"/v1/ratio", client.RatioRequest{
		Graph: client.Graph{Ring: []string{"2", "7", "5"}}, V: 1, Grid: 8, Cert: true})
	if err := json.Unmarshal(raw, &replay); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path string
		lie        func(m map[string]any)
	}{
		{"rewritten_ratio", "/v1/ratio", func(m map[string]any) { m["ratio"] = "7919/13" }},
		{"dropped_cert", "/v1/ratio", func(m map[string]any) { delete(m, "certificate") }},
		{"replayed_cert", "/v1/ratio", func(m map[string]any) {
			for k := range m {
				delete(m, k)
			}
			for k, v := range replay {
				m[k] = v
			}
		}},
		{"rewritten_sweep_point", "/v1/sweep", func(m map[string]any) {
			m["points"].([]any)[1].(map[string]any)["u"] = "7919/13"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest := startNode(t, "h1", server.Config{})
			evil := lyingNode(t, startNode(t, "evil", server.Config{}), tc.path, tc.lie)
			r, rts := startRouter(t, Config{QuarantineFor: time.Hour}, honest.url, evil.URL)
			var wg client.Graph
			for i := 0; i < 256; i++ {
				wg = client.Graph{Ring: []string{"1", "2", strconv.Itoa(3 + i)}}
				if k, err := server.PlacementKey(&wg, ""); err != nil || r.ring.sequence(k)[0] == evil.URL {
					break
				}
			}
			var req any = client.RatioRequest{Graph: wg, V: 1, Grid: 8, Cert: true}
			if tc.path == "/v1/sweep" {
				req = client.SweepRequest{Graph: wg, V: 1, Grid: 4, Cert: true}
			}
			status, got := postAnswer(t, rts.URL+tc.path, req)
			_, want := postAnswer(t, honest.url+tc.path, req)
			if status != http.StatusOK || !sameAnswer(t, got, want) {
				t.Fatalf("routed answer %d is not the honest one:\n%.400s", status, got)
			}
			if got := r.certRejections.Load(); got != 1 {
				t.Fatalf("cert_rejections_total = %d, want 1", got)
			}
			if ms := r.Members(); !hasMember(ms, Member{URL: evil.URL, State: StateQuarantined}) {
				t.Fatalf("lying node not quarantined: %+v", ms)
			}
		})
	}
}

// postAnswer posts body as JSON to url and returns the status and answer.
func postAnswer(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// sameAnswer compares two answers apart from evals, a work count.
func sameAnswer(t *testing.T, a, b []byte) bool {
	t.Helper()
	var x, y map[string]any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	delete(x, "evals")
	delete(y, "evals")
	return reflect.DeepEqual(x, y)
}

// hasMember reports whether ms holds a member with want's URL and state.
func hasMember(ms []Member, want Member) bool {
	for _, m := range ms {
		if m.URL == want.URL && m.State == want.State {
			return true
		}
	}
	return false
}

// TestRouterReadyzAndMetrics: the router's own health flips to 503 when the
// last backend dies, and /metrics exposes the counters the ops story
// depends on.
func TestRouterReadyzAndMetrics(t *testing.T) {
	n := startNode(t, "only", server.Config{})
	_, rts := startRouter(t, Config{ProbeInterval: 10 * time.Millisecond, DeadAfter: 1}, n.url)

	rc := client.New(rts.URL)
	if _, err := rc.Ratio(context.Background(), &client.RatioRequest{
		Graph: client.Graph{Ring: []string{"1", "2", "3"}}, V: 0, Grid: 4,
	}); err != nil {
		t.Fatalf("proxied ratio: %v", err)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		`irrouter_requests_total{endpoint="/v1/ratio",status="200"} 1`,
		`irrouter_node_state{node="` + n.url + `",state="alive"} 1`,
		"irrouter_probes_total",
		"irrouter_leases_active 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	n.stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(rts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router still ready with its only backend dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireOf renders a graph in explicit wire form (same helper as the client's
// differential corpus).
func wireOf(g *graph.Graph) client.Graph {
	ws := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		ws[v] = g.Weight(v).String()
	}
	return client.Graph{N: g.N(), Weights: ws, Edges: g.Edges()}
}

// TestClusterChaosReplay routes the 100-instance differential corpus through
// the router with faults armed at the two cluster sites — cluster.probe
// (membership flapping: nodes declared dead and resurrected while traffic
// flows) and cluster.lease (lease-log writes failing under grant and
// renewal) — plus a durable-jobs leg. The contract matches the client-side
// chaos replay: every request converges through the retrying client and
// every answer is bit-identical to a fault-free single node.
func TestClusterChaosReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	injector, err := fault.New(20260808,
		fault.Rule{Site: fault.SiteClusterProbe, Kind: fault.KindError, Every: 3, Limit: 80},
		fault.Rule{Site: fault.SiteClusterLease, Kind: fault.KindError, Every: 4, Limit: 12},
		fault.Rule{Site: fault.SiteClusterLease, Kind: fault.KindLatency, Every: 7, Latency: 200 * time.Microsecond, Limit: 50},
	)
	if err != nil {
		t.Fatal(err)
	}

	urls := make([]string, 3)
	for i := range urls {
		urls[i] = startNode(t, fmt.Sprintf("c%d", i+1), server.Config{DataDir: t.TempDir()}).url
	}
	_, rts := startRouter(t, Config{Chaos: injector, DataDir: t.TempDir()}, urls...)

	clean := startNode(t, "clean", server.Config{DataDir: t.TempDir()})
	cc := client.New(clean.url, client.WithSeed(1))
	fc := routerClient(rts.URL)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(20260805))
	dists := []graph.WeightDist{graph.DistUniform, graph.DistSkewed, graph.DistPowers, graph.DistUnit}
	const instances = 100
	jobsDriven := 0
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

		wantU, err := cc.Utilities(ctx, &client.UtilitiesRequest{Graph: wg})
		if err != nil {
			t.Fatalf("instance %d: clean utilities: %v", i, err)
		}
		gotU, err := fc.Utilities(ctx, &client.UtilitiesRequest{Graph: wg})
		if err != nil {
			t.Fatalf("instance %d: routed utilities did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotU, wantU) {
			t.Fatalf("instance %d: utilities diverged through the router:\ngot:  %+v\nwant: %+v", i, gotU, wantU)
		}

		if !isRing {
			continue
		}
		v := rng.Intn(n)
		const grid = 8
		wantR, err := cc.Ratio(ctx, &client.RatioRequest{Graph: wg, V: v, Grid: grid})
		if err != nil {
			t.Fatalf("instance %d: clean ratio: %v", i, err)
		}
		gotR, err := fc.Ratio(ctx, &client.RatioRequest{Graph: wg, V: v, Grid: grid})
		if err != nil {
			t.Fatalf("instance %d: routed ratio did not converge: %v", i, err)
		}
		if !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("instance %d: ratio diverged through the router:\ngot:  %+v\nwant: %+v", i, gotR, wantR)
		}

		// Every 8th ring also runs as a durable job through the router so
		// the lease path (grant through the chaos site, renewal, retirement)
		// sees sustained traffic. That is five jobs, so their grants alone
		// reach the site's every-4th error rule: renewals and retirements
		// come from the router's timer and may not fall inside a fast run.
		if i%8 != 0 {
			continue
		}
		jobsDriven++
		sub, err := fc.SubmitSweep(ctx, &client.JobSubmitRequest{Graph: wg, V: v, Grid: 16})
		if err != nil {
			t.Fatalf("instance %d: routed job submit did not converge: %v", i, err)
		}
		job, err := fc.WaitJob(ctx, sub.Job.ID)
		if err != nil {
			t.Fatalf("instance %d: routed job wait: %v", i, err)
		}
		if job.State != client.JobDone {
			t.Fatalf("instance %d: routed job settled as %q (error %q)", i, job.State, job.Error)
		}
		var got client.SweepResponse
		if err := json.Unmarshal(job.Result, &got); err != nil {
			t.Fatalf("instance %d: routed job result: %v", i, err)
		}
		want, err := cc.Sweep(ctx, &client.SweepRequest{Graph: wg, V: v, Grid: 16})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("instance %d: job result diverged through the router:\ngot:  %+v\nwant: %+v", i, got, want)
		}
	}
	if jobsDriven == 0 {
		t.Fatal("corpus drove no jobs; the lease leg is vacuous")
	}

	// Both cluster sites must actually have fired, or this replay proves
	// nothing about the router's fault handling.
	stats := injector.Stats()
	for _, site := range []string{fault.SiteClusterProbe, fault.SiteClusterLease} {
		st := stats[site]
		if st.Hits == 0 || st.Injected == 0 {
			t.Fatalf("site %s: hits=%d injected=%d — chaos leg is vacuous", site, st.Hits, st.Injected)
		}
	}
}

// TestClusterJobListView exercises the cluster-wide GET /v1/jobs: jobs
// owned by different nodes merge into one deduped view, the state/kind
// filters and the post-merge limit apply, and per-node cursors are
// rejected rather than silently mis-paginated.
func TestClusterJobListView(t *testing.T) {
	nodes := make([]*testNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		nodes[i] = startNode(t, fmt.Sprintf("n%d", i+1), server.Config{DataDir: t.TempDir()})
		urls[i] = nodes[i].url
	}
	_, rts := startRouter(t, Config{}, urls...)
	rc := routerClient(rts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sweep, err := rc.SubmitSweep(ctx, &client.JobSubmitRequest{
		Graph: client.Graph{Ring: []string{"1", "2", "3", "4", "5"}}, V: 2, Grid: 8,
	})
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	scen, err := rc.SubmitScenario(ctx, &client.ScenarioRequest{
		Kind: "ksybil", Graph: client.Graph{Ring: []string{"3", "1", "4", "1", "5"}}, V: 0, K: 3, Grid: 5,
	})
	if err != nil {
		t.Fatalf("submit scenario: %v", err)
	}
	for _, id := range []string{sweep.Job.ID, scen.Job.ID} {
		if job, err := rc.WaitJob(ctx, id); err != nil || job.State != client.JobDone {
			t.Fatalf("job %s: %v (state %v)", id, err, job)
		}
	}

	list, err := rc.ListJobs(ctx, client.JobListQuery{})
	if err != nil {
		t.Fatalf("cluster list: %v", err)
	}
	seen := map[string]int{}
	for _, j := range list.Jobs {
		seen[j.ID]++
	}
	if len(list.Jobs) != 2 || seen[sweep.Job.ID] != 1 || seen[scen.Job.ID] != 1 {
		t.Fatalf("merged view wrong: %+v", list.Jobs)
	}

	byKind, err := rc.ListJobs(ctx, client.JobListQuery{Kind: "ksybil"})
	if err != nil {
		t.Fatalf("kind filter: %v", err)
	}
	if len(byKind.Jobs) != 1 || byKind.Jobs[0].ID != scen.Job.ID {
		t.Fatalf("kind filter answered %+v", byKind.Jobs)
	}
	byState, err := rc.ListJobs(ctx, client.JobListQuery{State: client.JobDone})
	if err != nil {
		t.Fatalf("state filter: %v", err)
	}
	if len(byState.Jobs) != 2 {
		t.Fatalf("state filter answered %+v", byState.Jobs)
	}
	limited, err := rc.ListJobs(ctx, client.JobListQuery{Limit: 1})
	if err != nil {
		t.Fatalf("limit: %v", err)
	}
	if len(limited.Jobs) != 1 {
		t.Fatalf("limit answered %d jobs", len(limited.Jobs))
	}

	var apiErr *client.APIError
	if _, err := rc.ListJobs(ctx, client.JobListQuery{Cursor: 7}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("cursor must be rejected cluster-wide, got %v", err)
	}
	if _, err := rc.ListJobs(ctx, client.JobListQuery{Kind: "quantum"}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("unknown kind must be rejected, got %v", err)
	}
}

func TestClusterScenarioProxy(t *testing.T) {
	nodes := make([]*testNode, 2)
	urls := make([]string, 2)
	for i := range nodes {
		nodes[i] = startNode(t, fmt.Sprintf("n%d", i+1), server.Config{})
		urls[i] = nodes[i].url
	}
	_, rts := startRouter(t, Config{}, urls...)
	rc := routerClient(rts.URL)
	direct := routerClient(urls[0])
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// ksybil carries a graph, so placement is keyed; the routed answer must
	// match a direct backend call bit-for-bit (exact arithmetic throughout).
	req := &client.ScenarioRequest{
		Kind: "ksybil", Graph: client.Graph{Ring: []string{"3", "1", "2", "1", "5"}}, V: 0, K: 3, Grid: 6,
	}
	routed, err := rc.Scenario(ctx, req)
	if err != nil {
		t.Fatalf("routed scenario: %v", err)
	}
	want, err := direct.Scenario(ctx, req)
	if err != nil {
		t.Fatalf("direct scenario: %v", err)
	}
	if !reflect.DeepEqual(routed, want) {
		t.Fatalf("routed scenario diverged:\nrouted: %+v\ndirect: %+v", routed, want)
	}

	// topology has no graph: placement degrades to the endpoint spread but
	// the scan must still route and answer.
	topo, err := rc.Scenario(ctx, &client.ScenarioRequest{
		Kind: "topology", Families: []string{"ring", "tree"}, Count: 1, N: 5, Grid: 3, Seed: 7,
	})
	if err != nil {
		t.Fatalf("routed topology scenario: %v", err)
	}
	if topo.Topology == nil || topo.Topology.Total != 2 {
		t.Fatalf("routed topology answered %+v", topo)
	}

	// Backend validation errors pass through with their stable code.
	var apiErr *client.APIError
	if _, err := rc.Scenario(ctx, &client.ScenarioRequest{
		Kind: "ksybil", Graph: client.Graph{Ring: []string{"1", "2", "3"}}, V: 0, K: 99, Grid: 4,
	}); !errors.As(err, &apiErr) || apiErr.Code != "scenario_limit" {
		t.Fatalf("scenario_limit must pass through the router, got %v", err)
	}
}

// TestJobLookupWithOwnerDown: once a finished job's lease is retired, only
// its owner knows the job. While the owner is down, a lookup or cancel
// through the router must answer a retryable 503 job_unreachable — not a
// 404 the client gives up on — and once the owner is back the job answers
// 200 again. An ID no member holds, with every member alive, is a 404.
func TestJobLookupWithOwnerDown(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = startNode(t, fmt.Sprintf("o%d", i+1), server.Config{DataDir: t.TempDir()}).url
	}
	// The router is not started: its probe loop would revive the owner, so
	// the test drives membership and lease supervision by hand.
	r, err := New(Config{Nodes: urls, DeadAfter: 1, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		rts.Close()
		r.Close()
	})
	ctx := context.Background()
	rc := routerClient(rts.URL)
	sub, err := rc.SubmitSweep(ctx, &client.JobSubmitRequest{Graph: client.Graph{Ring: []string{"1", "2", "3", "4"}}, V: 0, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID
	leases := r.Leases()
	if len(leases) != 1 || leases[0].JobID != id {
		t.Fatalf("leases after submit: %+v", leases)
	}
	owner := leases[0].Node
	if job, err := rc.WaitJob(ctx, id); err != nil || job.State != client.JobDone {
		t.Fatalf("wait: %+v, %v", job, err)
	}
	r.superviseLeases(ctx)
	if ls := r.Leases(); len(ls) != 0 {
		t.Fatalf("finished job's lease not retired: %+v", ls)
	}

	call := func(method, id string) (int, http.Header, server.ErrorResponse) {
		t.Helper()
		req, err := http.NewRequest(method, rts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body server.ErrorResponse
		raw, _ := io.ReadAll(resp.Body)
		json.Unmarshal(raw, &body)
		return resp.StatusCode, resp.Header, body
	}

	r.members.markFailed(owner)
	if r.members.alive(owner) {
		t.Fatal("owner still alive after a failed probe at DeadAfter 1")
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		status, hdr, body := call(method, id)
		if status != http.StatusServiceUnavailable || body.Code != CodeJobUnreachable || hdr.Get("Retry-After") != "1" {
			t.Fatalf("%s with the owner down: %d %+v, Retry-After %q; want 503 %s, Retry-After 1",
				method, status, body, hdr.Get("Retry-After"), CodeJobUnreachable)
		}
	}

	r.members.markOK(owner, "back", 0, time.Now())
	if status, _, body := call(http.MethodGet, id); status != http.StatusOK {
		t.Fatalf("GET with the owner back: %d %+v", status, body)
	}
	if job, err := rc.GetJob(ctx, id); err != nil || job.State != client.JobDone {
		t.Fatalf("client GET with the owner back: %+v, %v", job, err)
	}
	if status, _, body := call(http.MethodGet, "j0000000000000000"); status != http.StatusNotFound || body.Code != "not_found" {
		t.Fatalf("unknown job with every member alive: %d %+v, want 404 not_found", status, body)
	}
}
