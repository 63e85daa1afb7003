package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/allocation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
	"repro/internal/sybil"
)

// TestOdometerMatchesCompositions pins the streaming odometer against the
// materializing reference enumerator: same order, same contents, and the
// reduced stream is exactly the filtered subsequence.
func TestOdometerMatchesCompositions(t *testing.T) {
	cases := []struct{ total, k int }{
		{5, 2}, {6, 3}, {4, 4}, {0, 3}, {7, 1}, {3, 5}, {8, 2},
	}
	for _, tc := range cases {
		ref := sybil.Compositions(tc.total, tc.k)
		od, err := NewOdometer(tc.total, tc.k, false)
		if err != nil {
			t.Fatalf("(%d,%d): %v", tc.total, tc.k, err)
		}
		var got [][]int
		for {
			c, ok := od.Next()
			if !ok {
				break
			}
			got = append(got, append([]int(nil), c...))
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("(%d,%d): odometer %v != compositions %v", tc.total, tc.k, got, ref)
		}

		// Reduced = the subsequence with non-increasing interior digits.
		var want [][]int
		for _, c := range ref {
			ok := true
			for i := 2; i < tc.k-1; i++ {
				if c[i-1] < c[i] {
					ok = false
					break
				}
			}
			if tc.k < 3 || ok {
				want = append(want, c)
			}
		}
		red, err := NewOdometer(tc.total, tc.k, true)
		if err != nil {
			t.Fatal(err)
		}
		var gotRed [][]int
		for {
			c, ok := red.Next()
			if !ok {
				break
			}
			gotRed = append(gotRed, append([]int(nil), c...))
		}
		if !reflect.DeepEqual(gotRed, want) {
			t.Fatalf("(%d,%d) reduced: odometer %v != filtered %v", tc.total, tc.k, gotRed, want)
		}
		probe, _ := NewOdometer(tc.total, tc.k, true)
		if n := probe.Count(0); n != len(want) {
			t.Fatalf("(%d,%d): Count %d != %d", tc.total, tc.k, n, len(want))
		}
	}
}

// TestKSybilK2MatchesRingSweep is the bit-identity contract: over a
// 50-instance random-ring corpus, the k = 2 scenario scan reproduces the
// two-identity sweep point for point — same utilities, same best index,
// same honest value and ratio, and composition c ↔ w1 = W·c/Grid. The
// reference sweep runs cold (no evaluation cache, no incremental engine),
// so it shares no solver state with the scan's split evaluator.
func TestKSybilK2MatchesRingSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(6) + 3
		g := graph.RandomRing(rng, n, graph.WeightDist(rng.Intn(4)))
		v := rng.Intn(n)
		grid := []int{4, 8, 16}[rng.Intn(3)]

		cold, err := core.NewInstance(g, v)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cold.SetEvalCache(false)
		cold.SetIncremental(false)
		sweep, err := sybil.NewSweep(cold.W(), cold.HonestU, grid, func(ctx context.Context, w1, w2 numeric.Rat) (numeric.Rat, error) {
			ev, err := cold.EvalPairCtx(ctx, w1, w2)
			if err != nil {
				return numeric.Rat{}, err
			}
			return ev.U, nil
		}).Run(context.Background(), sybil.SweepOptions{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: sweep: %v", trial, err)
		}
		scan, err := KSybil(context.Background(), g, v, KSybilOptions{K: 2, Grid: grid})
		if err != nil {
			t.Fatalf("trial %d: ksybil: %v", trial, err)
		}
		if scan.Total != grid+1 || len(scan.Points) != len(sweep.Points) {
			t.Fatalf("trial %d: %d/%d points, want %d", trial, scan.Total, len(scan.Points), len(sweep.Points))
		}
		W := g.Weight(v)
		for i, p := range scan.Points {
			if p.Comp[0] != i || p.Comp[1] != grid-i {
				t.Fatalf("trial %d point %d: comp %v", trial, i, p.Comp)
			}
			w1 := W.MulInt(int64(p.Comp[0])).DivInt(int64(grid))
			if !w1.Equal(sweep.Points[i].W1) {
				t.Fatalf("trial %d point %d: w1 %v != %v", trial, i, w1, sweep.Points[i].W1)
			}
			if !p.U.Equal(sweep.Points[i].U) {
				t.Fatalf("trial %d point %d: U %v != sweep %v", trial, i, p.U, sweep.Points[i].U)
			}
		}
		if scan.BestIndex != sweep.BestIndex || !scan.BestU.Equal(sweep.BestU) {
			t.Fatalf("trial %d: best (%d, %v) != sweep (%d, %v)",
				trial, scan.BestIndex, scan.BestU, sweep.BestIndex, sweep.BestU)
		}
		if !scan.Honest.Equal(sweep.Honest) || !scan.Ratio.Equal(sweep.Ratio) {
			t.Fatalf("trial %d: honest/ratio (%v, %v) != sweep (%v, %v)",
				trial, scan.Honest, scan.Ratio, sweep.Honest, sweep.Ratio)
		}
	}
}

// TestKSybilGenericMatchesMechanismSweep extends the k = 2 identity to the
// generic mechanism path: the scenario scan under a non-BD mechanism
// reproduces, point for point, a reference built here from
// graph.TwoSplitOnRing and Allocate alone, and agrees with
// mechanism.RingSweep on best point and ratio.
func TestKSybilGenericMatchesMechanismSweep(t *testing.T) {
	ctx := context.Background()
	g := graph.Ring(numeric.Ints(3, 1, 4, 1, 5, 9))
	const v, grid = 2, 8
	W := g.Weight(v)
	for _, name := range []string{"eqsplit", "pr"} {
		m, err := mechanism.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scan, err := KSybil(ctx, g, v, KSybilOptions{K: 2, Grid: grid, Mechanism: m})
		if err != nil {
			t.Fatalf("%s: ksybil: %v", name, err)
		}
		if len(scan.Points) != grid+1 {
			t.Fatalf("%s: %d points, want %d", name, len(scan.Points), grid+1)
		}
		for i, p := range scan.Points {
			w1 := W.MulInt(int64(i)).DivInt(grid)
			path, _, v1, v2, err := graph.TwoSplitOnRing(g, v, w1, W.Sub(w1))
			if err != nil {
				t.Fatal(err)
			}
			a, err := m.Allocate(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			if want := a.Utility(v1).Add(a.Utility(v2)); !p.U.Equal(want) {
				t.Fatalf("%s point %d: U %v != reference %v", name, i, p.U, want)
			}
		}
		sweep, err := mechanism.RingSweep(ctx, m, g, v, sybil.SweepOptions{Grid: grid, Workers: 1})
		if err != nil {
			t.Fatalf("%s: sweep: %v", name, err)
		}
		if scan.BestIndex != sweep.BestIndex || !scan.Ratio.Equal(sweep.Ratio) || !scan.Honest.Equal(sweep.Honest) {
			t.Fatalf("%s: best/ratio mismatch", name)
		}
	}
}

// TestKSybilReductionSound checks the interior reduction against a brute
// force over the unreduced composition grid: skipping permuted interiors
// must not lose the maximum. k = 3 has a single interior digit (no
// symmetry, no shrink); k = 4 is the first case where the reduction prunes
// points.
func TestKSybilReductionSound(t *testing.T) {
	g := graph.Ring(numeric.Ints(7, 2, 9, 1, 8))
	const grid = 6
	for _, k := range []int{3, 4} {
		scan, err := KSybil(context.Background(), g, 1, KSybilOptions{K: k, Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.NewInstanceCtx(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		W := in.W()
		best := numeric.Zero
		for _, c := range sybil.Compositions(grid, k) {
			w1 := W.MulInt(int64(c[0])).DivInt(grid)
			wk := W.MulInt(int64(c[k-1])).DivInt(grid)
			ev, err := in.EvalWithheldCtx(context.Background(), w1, wk)
			if err != nil {
				t.Fatal(err)
			}
			if best.Less(ev.U) {
				best = ev.U
			}
		}
		if !scan.BestU.Equal(best) {
			t.Fatalf("k=%d: reduced best %v != unreduced best %v", k, scan.BestU, best)
		}
		unreduced := len(sybil.Compositions(grid, k))
		if k >= 4 && scan.Total >= unreduced {
			t.Fatalf("k=%d: reduction did not shrink the grid: %d vs %d", k, scan.Total, unreduced)
		}
		if k == 3 && scan.Total != unreduced {
			t.Fatalf("k=3 has no interior symmetry, yet %d != %d", scan.Total, unreduced)
		}
	}
}

// TestKSybilResume splits a k = 3 scan at every index and checks that the
// resumed halves concatenate to the uninterrupted run bit for bit — the
// property the durable job's WAL recovery rests on.
func TestKSybilResume(t *testing.T) {
	g := graph.Ring(numeric.Ints(5, 3, 11, 2, 7, 1))
	opts := KSybilOptions{K: 3, Grid: 5}
	full, err := KSybil(context.Background(), g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := NewKSybil(context.Background(), g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for split := 0; split <= full.Total; split++ {
		r, err := scan.Run(context.Background(), ks.Scan, scan.Options[KSybilPoint]{Start: split})
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		tail, err := ks.Result(r)
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		if tail.Start != split || tail.NextIndex != full.Total || tail.Partial {
			t.Fatalf("split %d: start/next %d/%d partial=%v", split, tail.Start, tail.NextIndex, tail.Partial)
		}
		if len(tail.Points) != full.Total-split {
			t.Fatalf("split %d: %d tail points", split, len(tail.Points))
		}
		for i, p := range tail.Points {
			fp := full.Points[split+i]
			if !reflect.DeepEqual(p.Comp, fp.Comp) || !p.U.Equal(fp.U) {
				t.Fatalf("split %d point %d: %v/%v != %v/%v", split, i, p.Comp, p.U, fp.Comp, fp.U)
			}
		}
	}
}

// TestKSybilCancelPartial cancels mid-scan from the checkpoint hook and
// expects a clean partial prefix, not an error.
func TestKSybilCancelPartial(t *testing.T) {
	g := graph.Ring(numeric.Ints(5, 3, 11, 2, 7, 1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopAfter := 4
	ks, err := NewKSybil(ctx, g, 0, KSybilOptions{K: 3, Grid: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := scan.Run(ctx, ks.Scan, scan.Options[KSybilPoint]{OnPoint: func(i int, _ KSybilPoint) error {
		if i == stopAfter-1 {
			cancel()
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ks.Result(r)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.NextIndex != stopAfter || len(res.Points) != stopAfter {
		t.Fatalf("partial=%v next=%d points=%d, want stop at %d", res.Partial, res.NextIndex, len(res.Points), stopAfter)
	}
}

// TestKSybilFaultFails arms the scenario.point site and expects a hard
// error — injected faults are failures, not checkpoints.
func TestKSybilFaultFails(t *testing.T) {
	g := graph.Ring(numeric.Ints(5, 3, 11))
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteScenarioPoint, Kind: fault.KindError, Every: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.ContextWith(context.Background(), inj)
	if _, err := KSybil(ctx, g, 0, KSybilOptions{K: 2, Grid: 8}); err == nil {
		t.Fatal("expected injected fault to fail the scan")
	}
}

// TestCoalitionBaselineAndBruteForce: the final grid point is the
// all-truthful profile (joint = honest joint), the best is its earliest
// maximum, and both match a brute force over the product grid.
func TestCoalitionBaselineAndBruteForce(t *testing.T) {
	g := graph.Ring(numeric.Ints(128, 2, 128, 128, 512, 4, 32))
	opts := CoalitionOptions{Members: []int{5, 4}, Grid: 3}
	res, err := Coalition(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 9 || len(res.Points) != 9 {
		t.Fatalf("total %d points %d, want 9", res.Total, len(res.Points))
	}
	last := res.Points[len(res.Points)-1]
	if last.Digits[0] != 3 || last.Digits[1] != 3 {
		t.Fatalf("last digits %v, want truthful (3,3)", last.Digits)
	}
	if !last.Joint.Equal(res.HonestJoint) {
		t.Fatalf("truthful joint %v != honest %v", last.Joint, res.HonestJoint)
	}
	// Brute force.
	m, err := mechanism.Get("")
	if err != nil {
		t.Fatal(err)
	}
	best := numeric.Rat{}
	first := true
	for c0 := 1; c0 <= 3; c0++ {
		for c1 := 1; c1 <= 3; c1++ {
			gp := g.Clone()
			gp.MustSetWeight(5, g.Weight(5).MulInt(int64(c0)).DivInt(3))
			gp.MustSetWeight(4, g.Weight(4).MulInt(int64(c1)).DivInt(3))
			a, err := m.Allocate(context.Background(), gp)
			if err != nil {
				t.Fatal(err)
			}
			joint := a.Utility(5).Add(a.Utility(4))
			if first || best.Less(joint) {
				best, first = joint, false
			}
		}
	}
	if !res.BestJoint.Equal(best) {
		t.Fatalf("best joint %v != brute force %v", res.BestJoint, best)
	}
	if res.HonestJoint.Less(res.BestJoint) {
		// Per-member attribution must be populated and consistent.
		sum := numeric.Zero
		for j := range opts.Members {
			sum = sum.Add(res.BestMember[j])
			if !res.Gains[j].Equal(res.BestMember[j].Sub(res.Honest[j])) {
				t.Fatalf("gain %d inconsistent", j)
			}
		}
		if !sum.Equal(res.BestJoint) {
			t.Fatalf("member sum %v != joint %v", sum, res.BestJoint)
		}
	}
}

// TestCoalitionResume checks start/prefix bit-identity for the coalition
// odometer.
func TestCoalitionResume(t *testing.T) {
	g := graph.Ring(numeric.Ints(9, 1, 6, 2, 5))
	opts := CoalitionOptions{Members: []int{0, 2, 3}, Grid: 2}
	full, err := Coalition(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != 8 {
		t.Fatalf("total %d, want 8", full.Total)
	}
	cs, err := NewCoalition(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{0, 1, 4, 7, 8} {
		r, err := scan.Run(context.Background(), cs.Scan, scan.Options[CoalitionPoint]{Start: split})
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		tail, err := cs.Result(r)
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		if len(tail.Points) != full.Total-split {
			t.Fatalf("split %d: %d points", split, len(tail.Points))
		}
		for i, p := range tail.Points {
			fp := full.Points[split+i]
			if !reflect.DeepEqual(p.Digits, fp.Digits) || !p.Joint.Equal(fp.Joint) {
				t.Fatalf("split %d point %d mismatch", split, i)
			}
		}
	}
}

// TestTopologyDeterminismResumeAndRegen runs a five-family scan twice,
// resumes it from the middle, and regenerates the per-family worst
// instances from their indices.
func TestTopologyDeterminismResumeAndRegen(t *testing.T) {
	opts := TopologyOptions{
		Families: Families(),
		Count:    2,
		N:        6,
		Grid:     3,
		Seed:     7,
	}
	full, err := Topology(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != 10 || len(full.Outcomes) != 10 {
		t.Fatalf("total %d outcomes %d, want 10", full.Total, len(full.Outcomes))
	}
	again, err := Topology(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(full) != fmt.Sprint(again) {
		t.Fatal("scan is not deterministic")
	}
	ts, err := NewTopology(opts)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := scan.Run(context.Background(), ts.Scan, scan.Options[TopologyOutcome]{Start: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range tail.Points {
		if fmt.Sprint(out) != fmt.Sprint(full.Outcomes[4+i]) {
			t.Fatalf("resumed outcome %d differs", i)
		}
	}
	if len(full.Summaries) != len(opts.Families) {
		t.Fatalf("%d summaries", len(full.Summaries))
	}
	for _, s := range full.Summaries {
		if s.Count != 2 || s.WorstIndex < 0 {
			t.Fatalf("summary %+v", s)
		}
		g, family, err := TopologyInstance(opts, s.WorstIndex)
		if err != nil {
			t.Fatal(err)
		}
		if family != s.Family {
			t.Fatalf("instance %d family %s != %s", s.WorstIndex, family, s.Family)
		}
		out := full.Outcomes[s.WorstIndex]
		if g.N() != out.N || g.M() != out.M {
			t.Fatalf("regenerated instance %d shape %d/%d != %d/%d", s.WorstIndex, g.N(), g.M(), out.N, out.M)
		}
		if family == FamilyRing && !g.IsRing() {
			t.Fatal("ring family instance is not a ring")
		}
	}
}

// TestTopologyValidation pins option errors.
func TestTopologyValidation(t *testing.T) {
	if _, err := Topology(context.Background(), TopologyOptions{Families: []string{"moebius"}}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Topology(context.Background(), TopologyOptions{Families: []string{FamilyRing}, N: 4}); err == nil {
		t.Fatal("n = 4 accepted")
	}
	if _, err := Topology(context.Background(), TopologyOptions{}); err == nil {
		t.Fatal("empty families accepted")
	}
}

// BenchmarkKSybilK3 is the grid-throughput benchmark exported to
// BENCH_scenarios.json (points per second over a k = 3 scan).
func BenchmarkKSybilK3(b *testing.B) {
	g := graph.Ring(numeric.Ints(31, 4, 17, 8, 23, 2, 11, 5))
	opts := KSybilOptions{K: 3, Grid: 16}
	total, err := KSybilTotal(opts.Grid, opts.K, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		res, err := KSybil(context.Background(), g, 0, opts)
		if err != nil {
			b.Fatal(err)
		}
		points += len(res.Points)
	}
	b.StopTimer()
	if points != b.N*total {
		b.Fatalf("evaluated %d points, want %d", points, b.N*total)
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkTopologyScan is the topology-scan throughput benchmark exported to
// BENCH_scenarios.json: one seeded scan shaped like a jobs-scan topology
// job (tree, barbell, smallworld and er; n = 10; grid 12; two instances
// each). Every instance costs 111 BD decompositions on a general graph, each
// on one λ-network, with the utilities read off the decomposition
// (Proposition 6) and no allocation max-flow; points/s counts scanned
// instances per second.
func BenchmarkTopologyScan(b *testing.B) {
	opts := TopologyOptions{Families: []string{FamilyTree, FamilyBarbell, FamilySmallWorld, FamilyER}, Count: 2, N: 10, Grid: 12, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		res, err := Topology(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		points += len(res.Outcomes)
	}
	b.StopTimer()
	if points != b.N*TopologyTotal(len(opts.Families), opts.Count) {
		b.Fatalf("scanned %d instances, want %d", points, b.N*TopologyTotal(len(opts.Families), opts.Count))
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}

// allocOnly hides every optional capability of a mechanism: callers see
// only its Name and Allocate, so its utilities come from allocations.
type allocOnly struct{ m mechanism.Mechanism }

func (a allocOnly) Name() string { return a.m.Name() }
func (a allocOnly) Allocate(ctx context.Context, g *graph.Graph) (*allocation.Allocation, error) {
	return a.m.Allocate(ctx, g)
}

// TestScansWithoutDecomposer requires topology and coalition scans under
// BD, whose utilities are read off its decompositions, to be
// byte-identical to the same scans under a mechanism that allocates exactly
// as BD does but hides its Decomposer.
func TestScansWithoutDecomposer(t *testing.T) {
	ctx := context.Background()
	bd, err := mechanism.Get("bd")
	if err != nil {
		t.Fatal(err)
	}
	topo := func(m mechanism.Mechanism) string {
		res, err := Topology(ctx, TopologyOptions{Families: Families(), Count: 2, N: 7, Grid: 4, Seed: 11, Mechanism: m})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := topo(allocOnly{bd}), topo(bd); got != want {
		t.Fatalf("topology without Decomposer:\n%s\nBD:\n%s", got, want)
	}
	g := graph.Ring(numeric.Ints(128, 2, 128, 128, 512, 4, 32))
	coal := func(m mechanism.Mechanism) string {
		res, err := Coalition(ctx, g, CoalitionOptions{Members: []int{5, 4}, Grid: 3, Mechanism: m})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := coal(allocOnly{bd}), coal(bd); got != want {
		t.Fatalf("coalition without Decomposer:\n%s\nBD:\n%s", got, want)
	}
}
