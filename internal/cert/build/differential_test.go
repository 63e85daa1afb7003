package build_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestDifferentialReplay is the acceptance gate of the certificate harness:
// 100 random ring instances, each split-evaluated by the incremental
// SplitSolver AND the brute-force subset-enumeration engine, with every
// answer certified and cross-checked.
//
//   - the two engines must produce identical splits (same w1, same U),
//   - the certificate built from the incremental answer must pass
//     cert.Check — a package that imports no solver code, so the check is
//     independent verification, not a replay.
func TestDifferentialReplay(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20250807))
	checked := 0
	for checked < 100 {
		n := 3 + rng.Intn(5) // brute force enumerates 2^(n+1) subsets
		g := graph.RandomRing(rng, n, graph.DistUniform)
		v := rng.Intn(n)
		in, err := core.NewInstanceCtx(ctx, g, v)
		if err != nil {
			continue // zero-weight rings the allocation rejects
		}
		w1 := g.Weight(v).MulInt(int64(rng.Intn(5))).DivInt(4)

		evInc, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			t.Fatalf("instance %d: incremental eval: %v", checked, err)
		}
		// Brute-force oracle: decompose the same path with exhaustive
		// subset enumeration and compare the answers.
		decBrute, err := bottleneck.DecomposeWith(evInc.Path, bottleneck.EngineBrute)
		if err != nil {
			t.Fatalf("instance %d: brute decompose: %v", checked, err)
		}
		u1 := decBrute.Utility(evInc.Path, evInc.V1)
		u2 := decBrute.Utility(evInc.Path, evInc.V2)
		if !u1.Equal(evInc.U1) || !u2.Equal(evInc.U2) {
			t.Fatalf("instance %d: engines disagree: incremental (%v, %v), brute (%v, %v)",
				checked, evInc.U1, evInc.U2, u1, u2)
		}

		// Certify the incremental answer; Check must accept it. cert does
		// not import bottleneck/core/sybil, so this is independent evidence.
		sc, err := build.Split(ctx, evInc)
		if err != nil {
			t.Fatalf("instance %d: build: %v", checked, err)
		}
		if err := cert.Check(&sc.Path); err != nil {
			t.Fatalf("instance %d: certificate rejected: %v", checked, err)
		}
		// The brute-force cover certifies too, and both certificates agree.
		cBrute, err := build.Decomposition(ctx, evInc.Path, decBrute)
		if err != nil {
			t.Fatalf("instance %d: brute build: %v", checked, err)
		}
		if err := cert.Check(cBrute); err != nil {
			t.Fatalf("instance %d: brute certificate rejected: %v", checked, err)
		}
		if len(cBrute.Pairs) != len(sc.Path.Pairs) {
			t.Fatalf("instance %d: engines certify different covers (%d vs %d pairs)",
				checked, len(cBrute.Pairs), len(sc.Path.Pairs))
		}
		for i := range cBrute.Pairs {
			if cBrute.Pairs[i].Alpha != sc.Path.Pairs[i].Alpha {
				t.Fatalf("instance %d pair %d: α %s vs %s",
					checked, i, cBrute.Pairs[i].Alpha, sc.Path.Pairs[i].Alpha)
			}
		}
		checked++
	}
}

// FuzzSplitDifferential cross-checks the incremental SplitSolver against
// the stock per-call engine on fuzzer-chosen rings and splits, certifying
// the incremental answer each time.
func FuzzSplitDifferential(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(2), uint8(4))
	f.Add(int64(42), uint8(3), uint8(1), uint8(0), uint8(1))
	f.Add(int64(7), uint8(8), uint8(7), uint8(9), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, vRaw, num, den uint8) {
		ctx := context.Background()
		n := 3 + int(nRaw)%6
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomRing(rng, n, graph.DistUniform)
		v := int(vRaw) % n
		in, err := core.NewInstanceCtx(ctx, g, v)
		if err != nil {
			t.Skip()
		}
		d := 1 + int(den)%32
		w1 := g.Weight(v).MulInt(int64(int(num) % (d + 1))).DivInt(int64(d))

		evInc, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			t.Fatalf("incremental eval: %v", err)
		}
		stock, err := core.NewInstanceCtx(ctx, g, v)
		if err != nil {
			t.Fatal(err)
		}
		stock.SetIncremental(false)
		stock.SetEvalCache(false)
		evStock, err := stock.EvalSplitCtx(ctx, w1)
		if err != nil {
			t.Fatalf("stock eval: %v", err)
		}
		if !evInc.U.Equal(evStock.U) || evInc.Signature != evStock.Signature {
			t.Fatalf("engines disagree at w1=%v: incremental U=%v sig=%q, stock U=%v sig=%q",
				w1, evInc.U, evInc.Signature, evStock.U, evStock.Signature)
		}
		sc, err := build.Split(ctx, evInc)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if err := cert.Check(&sc.Path); err != nil {
			t.Fatalf("certificate rejected: %v", err)
		}
	})
}
