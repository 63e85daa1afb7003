package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/client"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/server"
)

// routed-hot: two closed-loop clients send half /v1/ratio and half
// /v1/decompose through a cluster router to two backends, over a small set
// of rings that the set-up made resident in the backends' caches. Each
// client owns its own half of the set, so no two requests can join one
// micro-batch and the answers do not depend on timing.

const (
	hotWarm       = 200  // untimed warm-up requests per client per set-up
	hotTraceSlice = 2000 // requests per traced replay slice
	hotHotReps    = 5    // timed repetitions of each resident optimize
	hotTail       = 99   // a run holds tens of thousands of requests
)

type hotEnv struct {
	backends []string
	router   string
	clients  [hotClients]*client.Client
	rcs      [hotClients]*retryCounter
	streams  [hotClients]*hotStream
	ratio    []*client.RatioRequest
	dec      []*client.DecomposeRequest
	refRatio []*client.RatioResponse
	refDec   []*client.DecomposeResponse
}

// do sends op through c and compares the answer with the set-up's answer
// for the same instance.
func (e *hotEnv) do(ctx context.Context, c *client.Client, op hotOp) error {
	if op.ratio {
		resp, err := c.Ratio(ctx, e.ratio[op.inst])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(resp, e.refRatio[op.inst]) {
			return fmt.Errorf("ratio answer for instance %d differs from its set-up answer", op.inst)
		}
		return nil
	}
	resp, err := c.Decompose(ctx, e.dec[op.inst])
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(resp, e.refDec[op.inst]) {
		return fmt.Errorf("decompose answer for instance %d differs from its set-up answer", op.inst)
	}
	return nil
}

// fill sends every instance's ratio and decompose request once through c.
func (e *hotEnv) fill(ctx context.Context, c *client.Client, keep bool) error {
	for i := range e.ratio {
		r, err := c.Ratio(ctx, e.ratio[i])
		if err != nil {
			return fmt.Errorf("ratio of instance %d: %w", i, err)
		}
		d, err := c.Decompose(ctx, e.dec[i])
		if err != nil {
			return fmt.Errorf("decompose of instance %d: %w", i, err)
		}
		if keep {
			e.refRatio[i], e.refDec[i] = r, d
		}
	}
	return nil
}

func runRoutedHot(cfg runConfig) (*report, error) {
	ctx := context.Background()
	set := hotSet(cfg.seed)
	warm := hotWarm
	if cfg.smoke {
		warm = 10
	}
	env, st, setup, err := repeatSetup(cfg.setups, func() (*hotEnv, *stack, time.Duration, error) {
		st := &stack{}
		e := &hotEnv{
			refRatio: make([]*client.RatioResponse, len(set)),
			refDec:   make([]*client.DecomposeResponse, len(set)),
		}
		for _, in := range set {
			e.ratio = append(e.ratio, &client.RatioRequest{Graph: in.graph, V: in.v, Grid: hotGrid})
			e.dec = append(e.dec, &client.DecomposeRequest{Graph: in.graph})
		}
		t0 := time.Now()
		for i := 0; i < 2; i++ {
			url, err := startBackend(backendConfig(fmt.Sprintf("hot%d", i), "", true), st)
			if err != nil {
				return e, st, 0, err
			}
			e.backends = append(e.backends, url)
		}
		var err error
		if e.router, err = startRouter(e.backends, st); err != nil {
			return e, st, 0, err
		}
		for c := range e.clients {
			e.rcs[c] = &retryCounter{}
			e.clients[c] = newClient(e.router, cfg.seed+int64(c), e.rcs[c])
			e.streams[c] = newHotStream(cfg.seed, c)
		}
		if err := e.fill(ctx, e.clients[0], true); err != nil {
			return e, st, 0, fmt.Errorf("cache fill: %w", err)
		}
		errs := make([]error, hotClients)
		var wg sync.WaitGroup
		for c := range e.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := 0; j < warm && errs[c] == nil; j++ {
					errs[c] = e.do(ctx, e.clients[c], e.streams[c].next())
				}
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				return e, st, 0, fmt.Errorf("warm-up of client %d: %w", c, err)
			}
		}
		return e, st, time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := newReport()
	rep.e2e["setup_s"] = setup
	scraped := append([]string{env.router}, env.backends...)

	var before []promSnapshot
	if cfg.trace {
		if before, err = scrapeAll(scraped); err != nil {
			return nil, err
		}
	}
	type clientRun struct {
		lats    []float64
		failed  map[int]string
		retries int
	}
	runs := make([]clientRun, hotClients)
	var wg sync.WaitGroup
	p0 := beginTimed(cfg.trace)
	deadline := p0.wall.Add(cfg.seconds)
	for c := range env.clients {
		env.rcs[c].n = 0
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &runs[c]
			r.failed = map[int]string{}
			for j := 0; time.Now().Before(deadline); j++ {
				op := env.streams[c].next()
				r0 := env.rcs[c].n
				t := time.Now()
				err := env.do(ctx, env.clients[c], op)
				r.lats = append(r.lats, ms(time.Since(t)))
				switch {
				case err != nil:
					r.failed[j] = err.Error()
				case env.rcs[c].n > r0:
					r.failed[j] = fmt.Sprintf("needed %d retries", env.rcs[c].n-r0)
				}
			}
			r.retries = env.rcs[c].n
		}(c)
	}
	wg.Wait()
	p1 := markPhase(cfg.trace)
	var lats []float64
	retries := 0
	for c, r := range runs {
		for j, msg := range r.failed {
			rep.fail(c*1_000_000_000+j, "client %d: %s", c, msg)
		}
		lats = append(lats, r.lats...)
		retries += r.retries
	}
	rep.attempted = len(lats)
	rep.timed(p0, p1, len(lats), lats, hotTail)

	// Exact-answer gate: the set-up's answers, which every timed answer
	// matched, must equal an in-process solve.
	for i, req := range env.ratio {
		ref, _, err := solveCold(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("in-process solve of instance %d: %w", i, err)
		}
		if err := sameRatio(env.refRatio[i], ref); err != nil {
			rep.fail(-1-i, "set-up ratio of instance %d differs from in-process core: %v", i, err)
		}
		dec, err := solveDecompose(ctx, env.dec[i])
		if err != nil {
			return nil, fmt.Errorf("in-process decomposition of instance %d: %w", i, err)
		}
		if !reflect.DeepEqual(env.refDec[i], dec) {
			rep.fail(-1-i, "set-up decomposition of instance %d differs from in-process bottleneck", i)
		}
	}
	if !cfg.trace {
		return rep, nil
	}

	after, err := scrapeAll(scraped)
	if err != nil {
		return nil, err
	}
	serverLayers(rep, before[1:], after[1:], []string{"/v1/ratio", "/v1/decompose"})
	rep.layers["cluster.failovers"] = delta(before[:1], after[:1], "irrouter_failovers_total")
	rep.layers["client.attempts_per_op"] = share(float64(len(lats)+retries), float64(len(lats)))
	if err := hotLayers(ctx, cfg.seed, env, rep, mean(lats)); err != nil {
		return nil, err
	}
	return rep, nil
}

// solveDecompose answers a decompose request in process through
// bottleneck.DecomposeCtx, in the server's wire form.
func solveDecompose(ctx context.Context, req *client.DecomposeRequest) (*client.DecomposeResponse, error) {
	g, err := req.Graph.Build()
	if err != nil {
		return nil, err
	}
	d, err := bottleneck.DecomposeCtx(ctx, g, bottleneck.EngineAuto)
	if err != nil {
		return nil, err
	}
	resp := &client.DecomposeResponse{Signature: d.StructureSignature()}
	for _, p := range d.Pairs {
		resp.Pairs = append(resp.Pairs, server.WirePair{B: p.B, C: p.C, Alpha: server.EncodeRat(p.Alpha)})
	}
	for v := 0; v < g.N(); v++ {
		resp.Vertices = append(resp.Vertices, server.WireVertex{
			Index: v, Label: g.Label(v), Weight: server.EncodeRat(g.Weight(v)), Class: d.ClassOf(v).String(),
			Alpha: server.EncodeRat(d.AlphaOf(v)), Utility: server.EncodeRat(d.Utility(g, v)),
		})
	}
	return resp, nil
}

// hotLayers times the resident optimize in process, the router hop against
// a direct backend call, and the tracing-off comparison.
func hotLayers(ctx context.Context, seed int64, env *hotEnv, rep *report, meanLat float64) error {
	hot := make([]float64, len(env.ratio))
	var hits, misses int64
	for i, req := range env.ratio {
		g, err := req.Graph.Build()
		if err != nil {
			return err
		}
		in, err := core.NewInstanceCtx(ctx, g, req.V)
		if err != nil {
			return err
		}
		if _, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: req.Grid}); err != nil {
			return err
		}
		s0 := in.EvalStats()
		t := time.Now()
		for r := 0; r < hotHotReps; r++ {
			if _, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: req.Grid}); err != nil {
				return err
			}
		}
		hot[i] = ms(time.Since(t)) / hotHotReps
		s1 := in.EvalStats()
		hits += s1.CacheHits - s0.CacheHits
		misses += s1.CacheMisses - s0.CacheMisses
	}
	rep.layers["core.optimize_hot_ms"] = mean(hot)
	rep.layers["core.eval_cache_hit_share"] = share(float64(hits), float64(hits+misses))

	// Routed and direct latency of the same resident request, one client,
	// alternating which goes first. The direct backend is filled with every
	// instance first, so both paths answer from a resident cache entry.
	direct := newClient(env.backends[0], seed, &retryCounter{})
	if err := env.fill(ctx, direct, false); err != nil {
		return fmt.Errorf("direct fill: %w", err)
	}
	routed := newClient(env.router, seed, &retryCounter{})
	slice := newHotStream(seed+7, 0)
	ops := make([]hotOp, hotTraceSlice)
	for i := range ops {
		ops[i] = slice.next()
		ops[i].inst = (ops[i].inst + i) % len(env.ratio) // cover both halves
	}
	var hop, overhead []float64
	for i, op := range ops {
		var lat [2]float64
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			c := []*client.Client{routed, direct}[k]
			t := time.Now()
			if err := env.do(ctx, c, op); err != nil {
				return fmt.Errorf("hop replay: %w", err)
			}
			lat[k] = ms(time.Since(t))
		}
		hop = append(hop, lat[0]-lat[1])
		layer := 0.0
		if op.ratio {
			layer = hot[op.inst]
		}
		overhead = append(overhead, lat[1]-layer)
	}
	rep.layers["cluster.hop_ms"] = median(hop)
	rep.layers["server.overhead_ms"] = median(overhead)
	rep.layers["unattributed_ms"] = meanLat - rep.layers["cluster.hop_ms"] - rep.layers["server.request_ms"]

	tshare, err := tracingShare(seed, func(c *client.Client, i int) error {
		return env.do(ctx, c, ops[i])
	}, len(ops), func(c *client.Client) error { return env.fill(ctx, c, false) })
	if err != nil {
		return err
	}
	rep.layers["obs.tracing_share"] = tshare
	return nil
}
