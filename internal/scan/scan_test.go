package scan

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// squares is a deterministic scan of n points: point i is i² — enough to
// tell any misplaced, dropped or duplicated index apart.
func squares(n int) Scan[int] {
	return Scan[int]{
		Len:  n,
		Name: "test: point",
		Eval: func(_ context.Context, i int) (int, error) { return i * i, nil },
	}
}

func want(from, to int) []int {
	out := []int{}
	for i := from; i < to; i++ {
		out = append(out, i*i)
	}
	return out
}

// TestRunStartBounds pins the resume window: every Start in [0, Len]
// covers exactly [Start, Len) — Start = Len being the empty, complete scan
// of a job killed after its last checkpoint — and anything outside fails.
func TestRunStartBounds(t *testing.T) {
	const n = 7
	for _, workers := range []int{1, 3} {
		for start := 0; start <= n; start++ {
			r, err := Run(context.Background(), squares(n), Options[int]{Start: start, Workers: workers})
			if err != nil {
				t.Fatalf("workers %d start %d: %v", workers, start, err)
			}
			if r.Partial || r.Start != start || r.Next != n || !reflect.DeepEqual(r.Points, want(start, n)) {
				t.Fatalf("workers %d start %d: %+v", workers, start, r)
			}
		}
		for _, start := range []int{-1, n + 1} {
			if _, err := Run(context.Background(), squares(n), Options[int]{Start: start, Workers: workers}); err == nil {
				t.Fatalf("workers %d: start %d accepted", workers, start)
			}
		}
	}
}

// TestRunCancelEveryIndex cancels the scan from the checkpoint hook after
// every index and checks the partial-prefix contract at each cut: no
// error, Partial set, the points are exactly the completed prefix, the
// hook saw ascending indices, and resuming from Next reconstructs the full
// scan bit for bit.
func TestRunCancelEveryIndex(t *testing.T) {
	const n = 9
	for cut := 0; cut < n; cut++ {
		ctx, cancel := context.WithCancel(context.Background())
		var seen []int
		r, err := Run(ctx, squares(n), Options[int]{OnPoint: func(i, p int) error {
			seen = append(seen, i)
			if i == cut {
				cancel()
			}
			return nil
		}})
		cancel()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantPartial := cut < n-1
		if r.Partial != wantPartial || r.Next != cut+1 || !reflect.DeepEqual(r.Points, want(0, cut+1)) {
			t.Fatalf("cut %d: %+v", cut, r)
		}
		for k, i := range seen {
			if i != k {
				t.Fatalf("cut %d: hook saw indices %v", cut, seen)
			}
		}
		tail, err := Run(context.Background(), squares(n), Options[int]{Start: r.Next})
		if err != nil || tail.Partial {
			t.Fatalf("cut %d resume: %v %+v", cut, err, tail)
		}
		if merged := append(r.Points, tail.Points...); !reflect.DeepEqual(merged, want(0, n)) {
			t.Fatalf("cut %d: merged %v", cut, merged)
		}
	}
}

// TestRunParallelPrefix checks the parallel path: a complete run equals
// the sequential one, and a run whose context ends mid-way keeps a
// contiguous, correct prefix. Points past n/2 wait for the cancel that
// point n/2 makes; the workers claim indices in increasing order, so n/2
// is always claimed before any of them and the run is always partial.
func TestRunParallelPrefix(t *testing.T) {
	const n = 64
	full, err := Run(context.Background(), squares(n), Options[int]{Workers: 4})
	if err != nil || full.Partial || !reflect.DeepEqual(full.Points, want(0, n)) {
		t.Fatalf("parallel run: %v %+v", err, full)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sc := squares(n)
	sc.Eval = func(ctx context.Context, i int) (int, error) {
		switch {
		case i == n/2:
			cancel()
		case i > n/2:
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return i * i, nil
	}
	r, err := Run(ctx, sc, Options[int]{Workers: 4})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Partial || r.Next != len(r.Points) || !reflect.DeepEqual(r.Points, want(0, r.Next)) {
		t.Fatalf("canceled parallel run: %+v", r)
	}
}

// TestRunAlreadyCanceled: a context dead on arrival yields an empty
// partial result at Start, not an error.
func TestRunAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		r, err := Run(ctx, squares(5), Options[int]{Start: 2, Workers: workers})
		if err != nil || !r.Partial || len(r.Points) != 0 || r.Next != 2 {
			t.Fatalf("workers %d: %v %+v", workers, err, r)
		}
	}
}

// TestRunErrorsFail: an evaluation error, a fault at the scan's site, and
// a failing checkpoint hook each fail the whole scan — never a partial
// result — with the point's index in the message and the cause still
// matchable. A checkpoint hook that fails with a context error is a
// failure too: a checkpoint that could not be persisted is not an
// interruption.
func TestRunErrorsFail(t *testing.T) {
	boom := errors.New("boom")
	bad := squares(6)
	bad.Eval = func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), bad, Options[int]{Workers: workers})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "test: point 3") {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}

	inj, err := fault.New(1, fault.Rule{Site: fault.SiteSweepPoint, Kind: fault.KindError, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	faulty := squares(6)
	faulty.Site = fault.SiteSweepPoint
	if _, err := Run(fault.ContextWith(context.Background(), inj), faulty, Options[int]{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("fault at the scan's site: %v", err)
	}
	if _, err := Run(fault.ContextWith(context.Background(), inj), squares(6), Options[int]{}); err != nil {
		t.Fatalf("a scan without a site hit one: %v", err)
	}

	for _, hookErr := range []error{boom, context.Canceled} {
		_, err := Run(context.Background(), squares(6), Options[int]{OnPoint: func(i, _ int) error {
			if i == 2 {
				return hookErr
			}
			return nil
		}})
		if !errors.Is(err, hookErr) {
			t.Fatalf("hook error %v: got %v", hookErr, err)
		}
	}
	if _, err := Run(context.Background(), squares(6), Options[int]{Workers: 2, OnPoint: func(int, int) error { return nil }}); err == nil {
		t.Fatal("a checkpoint hook was accepted with parallel workers")
	}
}

// TestRunSpan: a named scan records one span with its size and, when cut
// short, a scan_partial event at the resume index.
func TestRunSpan(t *testing.T) {
	capture := &obs.Capture{}
	tr := capture.NewTrace("test")
	ctx, cancel := context.WithCancel(tr.Context(context.Background()))
	sc := squares(5)
	sc.Span = "test.scan"
	if _, err := Run(ctx, sc, Options[int]{OnPoint: func(i, _ int) error {
		if i == 1 {
			cancel()
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	sp := capture.Last().Root.Find("test.scan")
	if sp == nil || sp.Attr("points") != "5" || len(sp.Events) != 1 || sp.Events[0].Name != "scan_partial" {
		t.Fatalf("span %+v", sp)
	}
}

// TestBestEarliestMaximum pins the best-point rule: the earliest maximum,
// index 0 for an empty candidate list.
func TestBestEarliestMaximum(t *testing.T) {
	rs := func(xs ...int64) []numeric.Rat {
		out := make([]numeric.Rat, len(xs))
		for i, x := range xs {
			out[i] = numeric.FromInt(x)
		}
		return out
	}
	id := func(r numeric.Rat) numeric.Rat { return r }
	for _, tc := range []struct {
		us   []numeric.Rat
		want int
	}{
		{nil, 0},
		{rs(5), 0},
		{rs(1, 3, 3, 2), 1},
		{rs(4, 4, 4), 0},
		{rs(1, 2, 3, 7), 3},
		{rs(9, 1, 9), 0},
	} {
		if got := Best(tc.us, id); got != tc.want {
			t.Fatalf("Best(%v) = %d, want %d", tc.us, got, tc.want)
		}
	}
}

// TestRatioRule pins the ratio conventions.
func TestRatioRule(t *testing.T) {
	if r, err := Ratio(numeric.FromInt(3), numeric.FromInt(2)); err != nil || !r.Equal(numeric.New(3, 2)) {
		t.Fatalf("3/2: %v %v", r, err)
	}
	if r, err := Ratio(numeric.Zero, numeric.Zero); err != nil || !r.Equal(numeric.One) {
		t.Fatalf("0/0: %v %v", r, err)
	}
	if _, err := Ratio(numeric.One, numeric.Zero); err == nil {
		t.Fatal("positive utility from zero honest utility accepted")
	}
}
