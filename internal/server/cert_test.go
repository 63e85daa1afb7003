package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cert"
	"repro/internal/cert/enum"
)

// certTestRing is the fixed instance of the certificate wire tests: five
// vertices, mixed weights, a non-trivial piecewise optimum.
var certTestRing = WireGraph{Ring: []string{"3", "1", "2", "1", "5"}}

// TestGoldenCertWireFormat pins the ?cert=1 wire format of /v1/ratio and
// /v1/sweep, plus the structured cert_limit and cert_invalid errors. The
// certificate bodies are deterministic — the builder emits flow witnesses
// in canonical edge order — so byte-exact golden files work.
func TestGoldenCertWireFormat(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// The corruption hook forges the final ratio on demand; the server's
	// solver-free self-check must catch it and answer cert_invalid instead
	// of shipping the forged certificate.
	corrupt := false
	srv.corruptCert = func(c any) {
		if !corrupt {
			return
		}
		switch cc := c.(type) {
		case *cert.RatioCert:
			cc.Ratio = "3"
			cc.LeqTwo = false
		case *cert.SweepCert:
			cc.Ratio = "3"
			cc.LeqTwo = false
		}
	}

	cases := []struct {
		name    string
		path    string
		body    any
		status  int
		corrupt bool
	}{
		{"ratio_cert", "/v1/ratio?cert=1", RatioRequest{Graph: certTestRing, V: 0, Grid: 8}, http.StatusOK, false},
		{"sweep_cert", "/v1/sweep?cert=1", SweepRequest{Graph: certTestRing, V: 0, Grid: 4}, http.StatusOK, false},
		{"error_cert_limit", "/v1/sweep?cert=1", SweepRequest{Graph: certTestRing, V: 0, Grid: maxCertSweepGrid + 1}, http.StatusBadRequest, false},
		{"error_cert_invalid_ratio", "/v1/ratio?cert=1", RatioRequest{Graph: certTestRing, V: 1, Grid: 8}, http.StatusInternalServerError, true},
		{"error_cert_invalid_sweep", "/v1/sweep?cert=1", SweepRequest{Graph: certTestRing, V: 1, Grid: 4}, http.StatusInternalServerError, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupt = tc.corrupt
			defer func() { corrupt = false }()
			status, raw := postJSON(t, ts.URL, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, raw)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("wire format drifted from %s:\ngot:  %swant: %s", path, raw, want)
			}
		})
	}
}

// TestCertBodyFlagMatchesQueryParam: the cert opt-in is accepted both as
// the ?cert=1 query parameter and as the request-body flag, with
// bit-identical answers.
func TestCertBodyFlagMatchesQueryParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, viaQuery := postJSON(t, ts.URL, "/v1/ratio?cert=1", RatioRequest{Graph: certTestRing, V: 2, Grid: 8})
	_, viaBody := postJSON(t, ts.URL, "/v1/ratio", RatioRequest{Graph: certTestRing, V: 2, Grid: 8, Cert: true})
	if !bytes.Equal(viaQuery, viaBody) {
		t.Fatalf("query and body opt-in disagree:\n%s\n%s", viaQuery, viaBody)
	}
	_, plain := postJSON(t, ts.URL, "/v1/ratio", RatioRequest{Graph: certTestRing, V: 2, Grid: 8})
	var resp RatioResponse
	if err := json.Unmarshal(plain, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Certificate != nil {
		t.Fatal("certificate present without opt-in")
	}
}

// TestCertVerifiesClientSide is the trust story end to end: the wire
// certificate re-verifies with the dependency-free checker on the client
// side, agrees with the response's headline numbers, and any tampering is
// caught by that same checker.
func TestCertVerifiesClientSide(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var rresp RatioResponse
	mustPost(t, ts.URL, "/v1/ratio?cert=1", RatioRequest{Graph: certTestRing, V: 1, Grid: 8}, &rresp)
	rc := rresp.Certificate
	if rc == nil {
		t.Fatal("no ratio certificate")
	}
	if err := cert.Check(rc); err != nil {
		t.Fatalf("client-side re-check: %v", err)
	}
	if rc.Honest != rresp.Honest || rc.Ratio != rresp.Ratio || rc.Best.W1 != rresp.BestW1 || rc.Best.U != rresp.BestU {
		t.Fatalf("certificate disagrees with response: %+v vs honest=%s ratio=%s", rc, rresp.Honest, rresp.Ratio)
	}
	forged := *rc
	forged.Ratio = "2"
	forged.LeqTwo = true
	if err := cert.Check(&forged); err == nil {
		t.Fatal("forged ratio passed the checker")
	}

	var sresp SweepResponse
	mustPost(t, ts.URL, "/v1/sweep?cert=1", SweepRequest{Graph: certTestRing, V: 1, Grid: 6}, &sresp)
	sc := sresp.Certificate
	if sc == nil {
		t.Fatal("no sweep certificate")
	}
	if err := cert.Check(sc); err != nil {
		t.Fatalf("client-side re-check: %v", err)
	}
	if sc.Honest != sresp.Honest || sc.Ratio != sresp.Ratio {
		t.Fatalf("sweep certificate disagrees with response")
	}
	if len(sc.Points) != len(sresp.Points) {
		t.Fatalf("sweep certificate covers %d points, response has %d", len(sc.Points), len(sresp.Points))
	}
	for i, p := range sresp.Points {
		if sc.Points[i].W1 != p.W1 || sc.Points[i].U != p.U {
			t.Fatalf("point %d: certificate (%s,%s) vs response (%s,%s)", i, sc.Points[i].W1, sc.Points[i].U, p.W1, p.U)
		}
	}
}

// TestCertRingSizeLimit: ?cert=1 on a ring above maxCertRingSize is a 400
// cert_limit before any computation is admitted.
func TestCertRingSizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := WireGraph{Ring: make([]string, maxCertRingSize+1)}
	for i := range big.Ring {
		big.Ring[i] = "1"
	}
	status, raw := postJSON(t, ts.URL, "/v1/ratio?cert=1", RatioRequest{Graph: big, V: 0, Grid: 4})
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest || er.Code != CodeCertLimit {
		t.Fatalf("got %d %s, want 400 %s", status, er.Code, CodeCertLimit)
	}
	// Without the cert flag the same ring is served normally.
	var resp RatioResponse
	mustPost(t, ts.URL, "/v1/ratio", RatioRequest{Graph: big, V: 0, Grid: 4}, &resp)
	if resp.Ratio == "" {
		t.Fatal("plain ratio request on the large ring failed")
	}
}

// TestEnumerateJob runs the exhaustive small-n certification as a durable
// job: every canonical ring with n ∈ [3,4] and weights in {1,2} is solved,
// certified, and checkpointed; the final Result is the enum.Summary with
// zero failures and a max ratio within the Theorem 8 bound.
func TestEnumerateJob(t *testing.T) {
	_, ts := jobsTestServer(t)
	req := JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{MinN: 3, MaxN: 4, Levels: 2, Grid: 4, Eps: "3/5"}}

	resp, body := jobsPost(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job.Kind != "enumerate" {
		t.Fatalf("kind %q", sub.Job.Kind)
	}
	specs, err := enum.Enumerate(enum.Options{MinN: 3, MaxN: 4, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := len(specs)
	if sub.Job.TotalPoints != wantTotal {
		t.Fatalf("TotalPoints %d, want %d", sub.Job.TotalPoints, wantTotal)
	}

	job := waitJobState(t, ts.URL, sub.Job.ID, "done")
	var sum enum.Summary
	if err := json.Unmarshal(job.Result, &sum); err != nil {
		t.Fatalf("result is not an enum.Summary: %v\n%s", err, job.Result)
	}
	if sum.Instances != wantTotal || sum.Certified != wantTotal {
		t.Fatalf("certified %d of %d (want %d)", sum.Certified, sum.Instances, wantTotal)
	}
	if len(sum.Failures) != 0 {
		t.Fatalf("failures: %+v", sum.Failures)
	}
	if sum.MaxRatio == "" || sum.MaxKey == "" {
		t.Fatalf("summary missing max: %+v", sum)
	}

	// The detail view exposes per-instance outcomes as (key, ratio) points.
	var detail WireJob
	jobsGet(t, ts.URL+"/v1/jobs/"+sub.Job.ID, &detail)
	if len(detail.Points) != wantTotal {
		t.Fatalf("detail has %d points, want %d", len(detail.Points), wantTotal)
	}
	if detail.Points[0].W1 != "r3:1,1,1" {
		t.Fatalf("first enumerated instance %q, want r3:1,1,1", detail.Points[0].W1)
	}

	// Resubmission dedupes: enumerate jobs are content-addressed too.
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var again JobSubmitResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.Job.ID != sub.Job.ID {
		t.Fatalf("resubmission not deduped: %+v", again)
	}
}

// TestEnumerateJobValidation covers the submit-side rejections: unknown
// kind, explosive bounds, and malformed eps.
func TestEnumerateJobValidation(t *testing.T) {
	_, ts := jobsTestServer(t)
	cases := []struct {
		name string
		req  JobSubmitRequest
		code string
	}{
		{"unknown_kind", JobSubmitRequest{Kind: "quantum"}, CodeBadBody},
		{"explosive_bounds", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{MaxN: 9}}, CodeCertLimit},
		{"too_many_levels", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{Levels: 5}}, CodeCertLimit},
		{"absurd_bounds", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{MaxN: 11}}, CodeBadBody},
		{"bad_eps", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{Eps: "-1/2"}}, CodeBadBody},
		{"bad_grid", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{Grid: 5000}}, CodeBadGrid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := jobsPost(t, ts.URL+"/v1/jobs", tc.req)
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || er.Code != tc.code {
				t.Fatalf("got %d %s, want 400 %s (%s)", resp.StatusCode, er.Code, tc.code, body)
			}
		})
	}
}
