// Package scan is the resumable-scan kernel under every search: the
// two-identity sweep, the k-identity Sybil, coalition and topology scans,
// the tournament and the small-n enumeration. Each is a fixed-length list
// of independent, exactly evaluated points under one contract, owned here:
// point i means the same thing in every process; a run resumes at Start;
// every point checks the context and the scan's fault site; a checkpoint
// hook sees points in ascending order; context errors truncate the scan to
// its completed prefix while every other error fails it; the best point is
// the earliest maximum (Best) and ratios follow one rule (Ratio). Inline
// answers and durable jobs run the same Scan, so a resumed job's prefix
// plus tail is the uninterrupted answer by construction.
package scan

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
)

// Scan is a search space of Len points, point i evaluated by Eval.
type Scan[P any] struct {
	// Len is the point count; indices are [0, Len).
	Len int
	// Eval evaluates point i. Evaluations must be independent of each other
	// and deterministic, which is what makes any prefix resumable.
	Eval func(ctx context.Context, i int) (P, error)
	// Site, when set, is the fault-injection site hit before every point.
	Site string
	// Name prefixes the error of a failing point, e.g. "sybil: sweep point".
	Name string
	// Span, when set, names the obs span that records each run of the scan.
	Span string
}

// Options selects the part of a scan to run and how.
type Options[P any] struct {
	// Start is the first index to evaluate, in [0, Len]; Start = Len is an
	// empty, complete scan (a job killed after its last checkpoint).
	Start int
	// Workers > 1 evaluates points in parallel on up to Workers goroutines;
	// otherwise points run one after another in ascending order.
	Workers int
	// OnPoint, when set, sees every completed point in ascending index order.
	// Returning an error fails the scan (a checkpoint that cannot be
	// persisted must not be mistaken for an interruption). It requires
	// sequential evaluation.
	OnPoint func(i int, p P) error
}

// Result is the evaluated prefix of a scan.
type Result[P any] struct {
	// Points holds the points of indices [Start, Next), in index order.
	Points []P
	Start  int
	Next   int
	// Partial reports that a context error cut the scan short at Next.
	Partial bool
}

// Run evaluates s from opts.Start under the contract described in the
// package comment.
func Run[P any](ctx context.Context, s Scan[P], opts Options[P]) (*Result[P], error) {
	if opts.Start < 0 || opts.Start > s.Len {
		return nil, fmt.Errorf("scan: start index %d outside [0, %d]", opts.Start, s.Len)
	}
	if opts.OnPoint != nil && opts.Workers > 1 {
		return nil, fmt.Errorf("scan: a checkpoint hook needs sequential evaluation")
	}
	if s.Span != "" {
		var span *obs.Span
		ctx, span = obs.Start(ctx, s.Span)
		defer span.End()
		if span != nil {
			span.SetAttr("points", strconv.Itoa(s.Len))
			if opts.Start > 0 {
				span.SetAttr("start", strconv.Itoa(opts.Start))
			}
		}
	}
	total := s.Len - opts.Start
	point := func(ctx context.Context, k int) (P, error) {
		var zero P
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if s.Site != "" {
			if err := fault.Hit(ctx, s.Site); err != nil {
				return zero, err
			}
		}
		return s.Eval(ctx, opts.Start+k)
	}
	pts := make([]P, 0, total)
	completed, canceled := total, false
	if opts.Workers > 1 {
		pts = pts[:total]
		errs := par.MapCtx(ctx, total, opts.Workers, func(ctx context.Context, k int) error {
			p, err := point(ctx, k)
			pts[k] = p
			return err
		})
		for k, err := range errs {
			if err != nil && !isCancel(err) {
				return nil, fmt.Errorf("%s %d: %w", s.Name, opts.Start+k, err)
			}
		}
		completed = 0
		for completed < total && errs[completed] == nil {
			completed++
		}
		canceled = completed < total
		pts = pts[:completed]
	} else {
		for k := 0; k < total; k++ {
			p, err := point(ctx, k)
			if isCancel(err) {
				completed, canceled = k, true
				break
			}
			if err == nil && opts.OnPoint != nil {
				err = opts.OnPoint(opts.Start+k, p)
			}
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", s.Name, opts.Start+k, err)
			}
			pts = append(pts, p)
		}
	}
	res := &Result[P]{Points: pts, Start: opts.Start, Next: opts.Start + completed, Partial: canceled}
	if sp := obs.FromContext(ctx); sp != nil && res.Partial {
		sp.AddEvent("scan_partial", "next_index", strconv.Itoa(res.Next))
	}
	return res, nil
}

// isCancel classifies the errors that truncate a scan instead of failing it.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Best returns the index of the earliest maximum of pts under key: the
// point that strictly exceeds every earlier one and is not exceeded by any
// later one. It returns 0 for no points, the convention every result type
// uses for an empty best.
func Best[P any](pts []P, key func(P) numeric.Rat) int {
	best := 0
	for i := 1; i < len(pts); i++ {
		if key(pts[best]).Less(key(pts[i])) {
			best = i
		}
	}
	return best
}

// Ratio is the ratio rule shared by every search: best/honest when honest
// is positive, exactly 1 when both are zero, and an error — never a silent
// infinity — when a positive utility arises from zero honest utility.
func Ratio(best, honest numeric.Rat) (numeric.Rat, error) {
	switch {
	case honest.Sign() > 0:
		return best.Div(honest), nil
	case best.Sign() > 0:
		return numeric.Rat{}, fmt.Errorf("positive attack utility %v from zero honest utility", best)
	default:
		return numeric.One, nil
	}
}
