package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/server"
)

// jobs-scan: a backlog of durable scan jobs — three ksybil scans for every
// topology scan — is submitted at the start of the timed phase. Job run time
// comes from the server's own timestamps, so no client-side waiting falls
// inside a timed interval.

const (
	scanWarm      = 8 // untimed warm-up jobs per set-up (two mix units)
	scanCorpusLen = 4000
	scanPoll      = 20 * time.Millisecond
	scanTail      = 90 // a run holds 100 to 999 jobs
)

type scanEnv struct {
	url      string
	c        *client.Client
	rc       *retryCounter
	unitTime time.Duration // run time of one 3:1 mix unit, from the warm-up
}

// waitJobs polls until every job is terminal and returns their final views.
// Polling runs outside timed intervals: callers take times from the
// server's timestamps.
func waitJobs(ctx context.Context, c *client.Client, ids []string) ([]*client.Job, error) {
	out := make([]*client.Job, len(ids))
	for i, id := range ids {
		for {
			j, err := c.GetJob(ctx, id)
			if err != nil {
				return nil, err
			}
			if client.JobTerminal(j.State) {
				out[i] = j
				break
			}
			time.Sleep(scanPoll)
		}
	}
	return out, nil
}

func runTimeMS(j *client.Job) float64 { return float64(j.FinishedAt-j.StartedAt) / 1e6 }

func runJobsScan(cfg runConfig) (*report, error) {
	ctx := context.Background()
	corpus := scanCorpus(cfg.seed, scanCorpusLen)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	env, st, setup, err := repeatSetup(cfg.setups, func() (scanEnv, *stack, time.Duration, error) {
		st := &stack{}
		dir, err := os.MkdirTemp(cfg.scratch, "jobs-")
		if err != nil {
			return scanEnv{}, st, 0, err
		}
		st.push(func() { os.RemoveAll(dir) })
		t0 := time.Now()
		url, err := startBackend(backendConfig("scan", dir, true), st)
		if err != nil {
			return scanEnv{}, st, 0, err
		}
		env := scanEnv{url: url, rc: &retryCounter{}}
		env.c = newClient(url, cfg.seed, env.rc)
		ids := make([]string, scanWarm)
		for i := range ids {
			sub, err := env.c.SubmitScenario(ctx, &corpus[i])
			if err != nil {
				return env, st, 0, fmt.Errorf("warm-up job %d: %w", i, err)
			}
			ids[i] = sub.Job.ID
		}
		done, err := waitJobs(ctx, env.c, ids)
		if err != nil {
			return env, st, 0, err
		}
		var last int64
		var kTime, tTime []float64
		for i, j := range done {
			if j.State != client.JobDone {
				return env, st, 0, fmt.Errorf("warm-up job %d ended %s: %s", i, j.State, j.Error)
			}
			last = max(last, j.FinishedAt)
			if j.Kind == "topology" {
				tTime = append(tTime, runTimeMS(j))
			} else {
				kTime = append(kTime, runTimeMS(j))
			}
		}
		unit := float64(scanTopologyGap-1)*mean(kTime) + mean(tTime)
		env.unitTime = time.Duration(unit * float64(time.Millisecond))
		return env, st, time.Unix(0, last).Sub(t0), nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := newReport()
	rep.e2e["setup_s"] = setup

	// The backlog holds whole mix units, enough to keep every worker busy
	// for the run length at the warm-up's pace.
	units := int(math.Ceil(cfg.seconds.Seconds() * float64(runtime.GOMAXPROCS(0)) / env.unitTime.Seconds()))
	if cfg.smoke {
		units = 1
	}
	backlog := corpus[scanWarm : scanWarm+units*scanTopologyGap]

	var before []promSnapshot
	if cfg.trace {
		if before, err = scrapeAll([]string{env.url}); err != nil {
			return nil, err
		}
	}
	env.rc.n = 0
	p0 := beginTimed(cfg.trace)
	ids := make([]string, len(backlog))
	for i := range backlog {
		sub, err := env.c.SubmitScenario(ctx, &backlog[i])
		if err != nil {
			return nil, fmt.Errorf("submit job %d: %w", i, err)
		}
		if sub.Deduped {
			return nil, fmt.Errorf("job %d deduped: the corpus must hold distinct specs", i)
		}
		ids[i] = sub.Job.ID
	}
	done, err := waitJobs(ctx, env.c, ids)
	if err != nil {
		return nil, err
	}
	p1 := markPhase(cfg.trace)
	var last int64
	points := 0
	lats := make([]float64, len(done))
	for i, j := range done {
		last = max(last, j.FinishedAt)
		lats[i] = runTimeMS(j)
		points += j.TotalPoints
		rep.weight[i] = j.TotalPoints // a failed job fails each of its points
		if j.State != client.JobDone {
			rep.fail(i, "job %s ended %s: %s", j.ID, j.State, j.Error)
		}
	}
	if env.rc.n > 0 {
		rep.fail(-1, "%d client retries", env.rc.n)
	}
	p1.wall = time.Unix(0, last)
	rep.attempted = points
	rep.timed(p0, p1, points, lats, scanTail)
	byKind := map[string][]float64{}
	for i, j := range done {
		byKind[j.Kind] = append(byKind[j.Kind], lats[i])
	}
	for _, k := range []string{"ksybil", "topology"} {
		xs := byKind[k]
		rep.notes = append(rep.notes, fmt.Sprintf("%s jobs: %d, run time p10 %.1f p50 %.1f p90 %.1f ms",
			k, len(xs), percentile(xs, 10), percentile(xs, 50), percentile(xs, 90)))
	}

	// Exact-answer gate: every job result must equal the direct scenario
	// result for the same spec. Traced runs check one job at a time so the
	// direct calls double as the scenario layer's timings.
	checks := make([]jobCheck, len(done))
	workers := runtime.GOMAXPROCS(0)
	if cfg.trace {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				checks[i] = checkJob(ctx, &backlog[i], done[i], cfg.trace)
			}
		}()
	}
	for i := range done {
		if done[i].State == client.JobDone {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	for i, c := range checks {
		if c.err != nil {
			rep.fail(i, "job %s: %v", done[i].ID, c.err)
		}
	}
	if !cfg.trace {
		return rep, nil
	}

	after, err := scrapeAll([]string{env.url})
	if err != nil {
		return nil, err
	}
	serverLayers(rep, before, after, []string{"/v1/jobs"})
	rep.layers["client.attempts_per_op"] = share(float64(len(ids)+env.rc.n), float64(len(ids)))
	rep.layers["jobs.syncs_per_job"] = share(delta(before, after, "irshared_jobs_wal_syncs_total"), float64(len(ids)))
	rep.layers["jobs.compactions"] = delta(before, after, "irshared_jobs_compactions_total")
	return rep, scanLayers(ctx, cfg, rep, backlog, done, checks, points)
}

// jobCheck is the gate's verdict on one job, with the direct call's layer
// times when they were measured.
type jobCheck struct {
	err           error
	newInstance   time.Duration
	direct        time.Duration // new instance + scan
	decompose     []time.Duration
	stats         core.EvalStats
	kind          string
	points        []jobs.Point
	resultPayload []byte
}

// checkJob recomputes a job's spec directly through internal/scenario and
// compares the result field by field.
func checkJob(ctx context.Context, spec *client.ScenarioRequest, job *client.Job, timed bool) jobCheck {
	jc := jobCheck{kind: spec.Kind, resultPayload: job.Result}
	got, err := client.ScenarioResult(job)
	if err != nil {
		jc.err = err
		return jc
	}
	if got.Kind != spec.Kind || got.Mechanism != "bd" {
		jc.err = fmt.Errorf("result kind %q mechanism %q", got.Kind, got.Mechanism)
		return jc
	}
	switch spec.Kind {
	case "ksybil":
		g, err := spec.Graph.Build()
		if err != nil {
			jc.err = err
			return jc
		}
		t0 := time.Now()
		in, err := core.NewInstanceCtx(ctx, g, spec.V)
		if err != nil {
			jc.err = err
			return jc
		}
		jc.newInstance = time.Since(t0)
		res, err := scenario.KSybil(ctx, g, spec.V, scenario.KSybilOptions{K: spec.K, Grid: spec.Grid, Instance: in})
		jc.direct = time.Since(t0)
		if err != nil {
			jc.err = err
			return jc
		}
		jc.stats = in.EvalStats()
		jc.err = sameKSybil(spec, got.KSybil, res)
		if got.KSybil != nil {
			for _, p := range got.KSybil.Points {
				jc.points = append(jc.points, jobs.Point{W1: joinInts(p.Comp), U: p.U})
			}
		}
	case "topology":
		opts := scenario.TopologyOptions{
			Families: spec.Families, Count: spec.Count, N: spec.N,
			Grid: spec.Grid, Seed: spec.Seed, Dist: graph.DistUniform,
		}
		t0 := time.Now()
		res, err := scenario.Topology(ctx, opts)
		jc.direct = time.Since(t0)
		if err != nil {
			jc.err = err
			return jc
		}
		jc.err = sameTopology(spec, got.Topology, res)
		if got.Topology != nil {
			for i, o := range got.Topology.Outcomes {
				raw, _ := json.Marshal(o)
				jc.points = append(jc.points, jobs.Point{W1: strconv.Itoa(i), U: string(raw)})
			}
		}
		if timed {
			for i := 0; i < res.Total; i++ {
				g, _, err := scenario.TopologyInstance(opts, i)
				if err != nil {
					jc.err = err
					return jc
				}
				t := time.Now()
				if _, err := bottleneck.DecomposeCtx(ctx, g, bottleneck.EngineAuto); err != nil {
					jc.err = err
					return jc
				}
				jc.decompose = append(jc.decompose, time.Since(t))
			}
		}
	default:
		jc.err = fmt.Errorf("unexpected kind %q", spec.Kind)
	}
	return jc
}

func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// sameKSybil compares a ksybil job result with the wire form of the
// direct scan of the same spec.
func sameKSybil(spec *client.ScenarioRequest, got *client.ScenarioKSybilResult, res *scenario.KSybilResult) error {
	return sameResult(got, wireKSybil(spec, res))
}

// wireKSybil renders a direct ksybil scan as the job result payload.
func wireKSybil(spec *client.ScenarioRequest, res *scenario.KSybilResult) *client.ScenarioKSybilResult {
	want := &client.ScenarioKSybilResult{
		K: spec.K, Grid: spec.Grid, Total: res.Total,
		BestIndex: res.BestIndex, BestComp: res.BestComp, BestU: server.EncodeRat(res.BestU),
		Honest: server.EncodeRat(res.Honest), Ratio: server.EncodeRat(res.Ratio),
	}
	for _, p := range res.Points {
		want.Points = append(want.Points, server.WireScenarioKSybilPoint{Comp: p.Comp, U: server.EncodeRat(p.U)})
	}
	return want
}

// sameTopology compares a topology job result with the wire form of the
// direct scan of the same spec.
func sameTopology(spec *client.ScenarioRequest, got *client.ScenarioTopologyResult, res *scenario.TopologyResult) error {
	return sameResult(got, wireTopology(spec, res))
}

// wireTopology renders a direct topology scan as the job result payload.
func wireTopology(spec *client.ScenarioRequest, res *scenario.TopologyResult) *client.ScenarioTopologyResult {
	want := &client.ScenarioTopologyResult{
		Families: spec.Families, Count: spec.Count, N: spec.N, Grid: spec.Grid,
		Seed: spec.Seed, Dist: spec.Dist, Total: res.Total,
	}
	for _, o := range res.Outcomes {
		want.Outcomes = append(want.Outcomes, server.WireTopologyOutcome{
			Family: o.Family, Index: o.Index, N: o.N, M: o.M, WorstV: o.WorstV, WorstDigit: o.WorstDigit,
			Honest: server.EncodeRat(o.Honest), Best: server.EncodeRat(o.Best), Ratio: server.EncodeRat(o.Ratio),
			Unbounded: o.Unbounded,
		})
	}
	for _, s := range res.Summaries {
		want.Summaries = append(want.Summaries, server.WireFamilySummary{
			Family: s.Family, Count: s.Count, WorstIndex: s.WorstIndex,
			WorstRatio: server.EncodeRat(s.WorstRatio), Unbounded: s.Unbounded,
		})
	}
	return want
}

// sameResult reports whether a decoded job payload equals the expected one,
// naming the first differing byte of their JSON encodings when not.
func sameResult[T any](got, want *T) error {
	if got == nil {
		return fmt.Errorf("result payload missing")
	}
	if reflect.DeepEqual(got, want) {
		return nil
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Errorf("result differs from the direct scan at byte %d: got %.60q, want %.60q", i, g[i:], w[min(i, len(w)):])
}

// scanLayers fills the jobs-scan per-layer metrics from the gate's direct
// calls, the server's timestamps, and a replay of the run's points into a
// scratch job store.
func scanLayers(ctx context.Context, cfg runConfig, rep *report, backlog []client.ScenarioRequest, done []*client.Job, checks []jobCheck, points int) error {
	var kMS, tMS, newInst, dec, wait, durability []float64
	var solver solverTally
	for i, c := range checks {
		j := done[i]
		wait = append(wait, float64(j.StartedAt-j.CreatedAt)/1e6)
		durability = append(durability, runTimeMS(j)-ms(c.direct))
		for _, d := range c.decompose {
			dec = append(dec, ms(d))
		}
		if c.kind == "topology" {
			tMS = append(tMS, ms(c.direct))
			continue
		}
		kMS = append(kMS, ms(c.direct))
		newInst = append(newInst, ms(c.newInstance))
		solver.add(c.stats)
	}
	rep.layers["scenario.ksybil_ms"] = mean(kMS)
	rep.layers["scenario.topology_ms"] = mean(tMS)
	rep.layers["core.new_instance_ms"] = mean(newInst)
	rep.layers["bottleneck.general_decompose_ms"] = mean(dec)
	solver.report(rep)
	rep.layers["jobs.queue_wait_ms"] = mean(wait)
	rep.layers["jobs.durability_ms"] = mean(durability)

	// Replay every job's lifecycle into a scratch store: fsync'd submit and
	// state transitions around one unsynced checkpoint append per point.
	dir, err := os.MkdirTemp(cfg.scratch, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := jobs.Open(filepath.Join(dir, "store"), jobs.StoreConfig{})
	if err != nil {
		return err
	}
	defer store.Close()
	var appendTime time.Duration
	var walBytes int64
	appends, sized := 0, 0
	for i, c := range checks {
		spec, _ := json.Marshal(backlog[i])
		rec, _, err := store.Submit(ctx, jobs.Submission{Key: done[i].ID, Kind: c.kind, Spec: spec})
		if err != nil {
			return err
		}
		running := func(r *jobs.Record) error { r.State = jobs.StateRunning; return nil }
		if _, err := store.Update(ctx, rec.ID, running); err != nil {
			return err
		}
		for k, p := range c.points {
			b0 := store.Stats().WALBytes
			t := time.Now()
			if err := store.AppendPoints(ctx, rec.ID, k, []jobs.Point{p}); err != nil {
				return err
			}
			appendTime += time.Since(t)
			appends++
			if b1 := store.Stats().WALBytes; b1 > b0 { // a compaction resets the segment
				walBytes += b1 - b0
				sized++
			}
		}
		finish := func(r *jobs.Record) error { r.State, r.Result = jobs.StateDone, c.resultPayload; return nil }
		if _, err := store.Update(ctx, rec.ID, finish); err != nil {
			return err
		}
	}
	rep.layers["jobs.append_us_per_point"] = share(float64(appendTime)/float64(time.Microsecond), float64(appends))
	rep.layers["jobs.wal_bytes_per_point"] = share(float64(walBytes), float64(sized))
	pointsPerJob := share(float64(points), float64(len(done)))
	rep.layers["unattributed_ms"] = mean(durability) - rep.layers["jobs.append_us_per_point"]*pointsPerJob/1000
	return nil
}
