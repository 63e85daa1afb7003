package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"repro/client"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/server"
)

// ratio-cold: one closed-loop client asks /v1/ratio for a distinct ring on
// every request, so each answer is a fresh solve and the instance cache is
// only ever written to.

const (
	coldWarm      = 7    // untimed warm-up requests per set-up
	coldCorpusLen = 4000 // far more than a run can send
	coldSample    = 4    // 1 in coldSample uncertified answers is recomputed
	coldTraceOff  = 12   // requests in the tracing-off comparison slice
	coldTail      = 90   // a run holds 100 to 999 requests
	coldMinOps    = 128  // the timed phase outlasts --seconds until it has sent a cache's worth
)

type coldEnv struct {
	url string
	c   *client.Client
	rc  *retryCounter
}

func runRatioCold(cfg runConfig) (*report, error) {
	n := coldCorpusLen
	if cfg.smoke {
		n = coldWarm + 8
	}
	corpus := coldCorpus(cfg.seed, n)
	ctx := context.Background()
	env, st, setup, err := repeatSetup(cfg.setups, func() (coldEnv, *stack, time.Duration, error) {
		st := &stack{}
		t0 := time.Now()
		url, err := startBackend(backendConfig("cold", "", true), st)
		if err != nil {
			return coldEnv{}, st, 0, err
		}
		env := coldEnv{url: url, rc: &retryCounter{}}
		env.c = newClient(url, cfg.seed, env.rc)
		for i := 0; i < coldWarm; i++ {
			if _, err := env.c.Ratio(ctx, &corpus[i]); err != nil {
				return env, st, 0, fmt.Errorf("warm-up request %d: %w", i, err)
			}
		}
		return env, st, time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := newReport()
	rep.e2e["setup_s"] = setup

	var before []promSnapshot
	if cfg.trace {
		if before, err = scrapeAll([]string{env.url}); err != nil {
			return nil, err
		}
	}
	env.rc.n = 0
	type op struct {
		i       int
		lat     float64
		resp    *client.RatioResponse
		retries int
	}
	var ops []op
	p0 := beginTimed(cfg.trace)
	deadline := p0.wall.Add(cfg.seconds)
	for i := coldWarm; i < len(corpus); i++ {
		if !time.Now().Before(deadline) && (len(ops) >= coldMinOps || cfg.smoke) {
			break
		}
		r0 := env.rc.n
		t := time.Now()
		resp, err := env.c.Ratio(ctx, &corpus[i])
		lat := ms(time.Since(t))
		ops = append(ops, op{i: i, lat: lat, resp: resp, retries: env.rc.n - r0})
		if err != nil {
			rep.fail(i, "request: %v", err)
		}
	}
	p1 := markPhase(cfg.trace)
	lats := make([]float64, len(ops))
	for k, o := range ops {
		lats[k] = o.lat
		if o.retries > 0 {
			rep.fail(o.i, "needed %d retries", o.retries)
		}
	}
	rep.attempted = len(ops)
	rep.timed(p0, p1, len(ops), lats, coldTail)

	// Exact-answer gate: every certificate is re-checked; a seeded sample of
	// uncertified answers (all of them in a traced run, which recomputes
	// every request anyway) is compared with an in-process solve.
	sample := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var lay coldLayers
	for k, o := range ops {
		if o.resp == nil {
			continue
		}
		req := &corpus[o.i]
		if req.Cert {
			if err := checkCertified(req, o.resp); err != nil {
				rep.fail(o.i, "certificate: %v", err)
			}
		}
		recompute := sample.Intn(coldSample) == 0
		if !cfg.trace && (req.Cert || !recompute) {
			continue
		}
		ref, t, err := solveCold(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("in-process solve of request %d: %w", o.i, err)
		}
		if err := sameRatio(o.resp, ref); err != nil {
			rep.fail(o.i, "answer differs from in-process core: %v", err)
		}
		if cfg.trace {
			lay.add(t, req.Cert, lats[k])
		}
	}
	if !cfg.trace {
		return rep, nil
	}

	after, err := scrapeAll([]string{env.url})
	if err != nil {
		return nil, err
	}
	lay.report(rep)
	serverLayers(rep, before, after, []string{"/v1/ratio"})
	rep.layers["client.attempts_per_op"] = share(float64(len(ops)+env.rc.n), float64(len(ops)))
	slice := make([]client.RatioRequest, 0, coldTraceOff)
	for _, o := range ops {
		if len(slice) < coldTraceOff {
			slice = append(slice, corpus[o.i])
		}
	}
	tshare, err := tracingShare(cfg.seed, func(c *client.Client, i int) error {
		_, err := c.Ratio(ctx, &slice[i])
		return err
	}, len(slice), nil)
	if err != nil {
		return nil, err
	}
	rep.layers["obs.tracing_share"] = tshare
	return rep, nil
}

// coldTimes are the in-process layer times of one request.
type coldTimes struct {
	newInstance, optimize, certBuild, certCheck time.Duration
	evals                                       int
	stats                                       core.EvalStats
}

func (t coldTimes) total() time.Duration {
	return t.newInstance + t.optimize + t.certBuild + t.certCheck
}

// solveCold answers req in process through core (and, for certified
// requests, cert/build and cert.Check), timing each layer call.
func solveCold(ctx context.Context, req *client.RatioRequest) (*client.RatioResponse, coldTimes, error) {
	var t coldTimes
	g, err := req.Graph.Build()
	if err != nil {
		return nil, t, err
	}
	t0 := time.Now()
	in, err := core.NewInstanceCtx(ctx, g, req.V)
	if err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: req.Grid})
	if err != nil {
		return nil, t, err
	}
	t.newInstance, t.optimize = t1.Sub(t0), time.Since(t1)
	t.evals, t.stats = opt.Evals, in.EvalStats()
	if req.Cert {
		t2 := time.Now()
		rc, err := build.Ratio(ctx, in, opt)
		if err != nil {
			return nil, t, err
		}
		t3 := time.Now()
		if err := cert.Check(rc); err != nil {
			return nil, t, err
		}
		t.certBuild, t.certCheck = t3.Sub(t2), time.Since(t3)
	}
	return &client.RatioResponse{
		Honest: server.EncodeRat(in.HonestU),
		BestW1: server.EncodeRat(opt.BestW1),
		BestU:  server.EncodeRat(opt.BestU),
		Ratio:  server.EncodeRat(opt.Ratio),
		LeqTwo: opt.Ratio.LessEq(numeric.Two),
		Evals:  opt.Evals,
		Pieces: len(opt.Pieces),
	}, t, nil
}

// sameRatio compares every answer field except the certificate.
func sameRatio(got, want *client.RatioResponse) error {
	g, w := *got, *want
	g.Certificate, w.Certificate = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("got %+v, want %+v", g, w)
	}
	return nil
}

// checkCertified re-checks a certified answer with the solver-free checker
// and ties the certificate to the request and to the answer's own fields.
func checkCertified(req *client.RatioRequest, resp *client.RatioResponse) error {
	c := resp.Certificate
	if c == nil {
		return fmt.Errorf("requested certificate missing")
	}
	if err := cert.Check(c); err != nil {
		return err
	}
	g, err := req.Graph.Build()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(c.Ring.Instance, build.InstanceOf(g)) || c.V != req.V {
		return fmt.Errorf("certificate is for another instance")
	}
	if c.Ratio != resp.Ratio || c.Honest != resp.Honest || c.LeqTwo != resp.LeqTwo {
		return fmt.Errorf("certificate ratio %s/honest %s disagree with answer %s/%s", c.Ratio, c.Honest, resp.Ratio, resp.Honest)
	}
	return nil
}

// coldLayers accumulates the traced replay of a ratio-cold run.
type coldLayers struct {
	newInst, opt, evals                      []float64
	certBuild, certCheck, overhead, layerSum []float64
	lats                                     []float64
	solver                                   solverTally
}

func (l *coldLayers) add(t coldTimes, certified bool, lat float64) {
	l.newInst = append(l.newInst, ms(t.newInstance))
	l.opt = append(l.opt, ms(t.optimize))
	l.evals = append(l.evals, float64(t.evals))
	l.solver.add(t.stats)
	if certified {
		l.certBuild = append(l.certBuild, ms(t.certBuild))
		l.certCheck = append(l.certCheck, ms(t.certCheck))
	}
	l.overhead = append(l.overhead, lat-ms(t.total()))
	l.layerSum = append(l.layerSum, ms(t.total()))
	l.lats = append(l.lats, lat)
}

func (l *coldLayers) report(rep *report) {
	l.solver.report(rep)
	rep.layers["core.new_instance_ms"] = mean(l.newInst)
	rep.layers["core.optimize_ms"] = mean(l.opt)
	rep.layers["core.evals"] = mean(l.evals)
	rep.layers["cert.build_ms"] = mean(l.certBuild)
	rep.layers["cert.check_ms"] = mean(l.certCheck)
	rep.layers["server.overhead_ms"] = median(l.overhead)
	rep.layers["unattributed_ms"] = mean(l.lats) - mean(l.layerSum)
}
