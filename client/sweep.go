package client

import (
	"context"
	"fmt"
	"time"

	"repro/internal/numeric"
	"repro/internal/server"
)

// SweepAll runs /v1/sweep to completion, automatically resuming partial
// results: whenever the server's request timeout truncates the sweep, the
// returned resume token is fed back until grid index Grid is covered. The
// merged response is bit-identical to a single uninterrupted sweep — the
// segments are concatenated, and Best/Ratio are recomputed exactly over the
// full point set.
//
// Each round must advance NextIndex; a server too overloaded to finish even
// one grid point per request gets a bounded number of zero-progress rounds
// (with the usual backoff between them) before SweepAll gives up — the
// client's max attempts by default, WithStallThreshold to change it. req is
// not mutated. A caller-supplied Resume token is honored as the starting
// point.
//
// With req.Cert set, an uninterrupted sweep's certificate passes through
// unchanged; a resumed (multi-segment) sweep's merged response carries no
// certificate, because the server only certifies the final segment's
// indices — re-request without interruption to certify the full range.
func (c *Client) SweepAll(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	r := *req
	grid := r.Grid
	if grid == 0 {
		grid = 64 // server default; needed to recognize completion
	}
	var segments []*SweepResponse
	next, stalls := 0, 0
	for {
		resp, err := c.Sweep(ctx, &r)
		if err != nil {
			return nil, err
		}
		if len(resp.Points) > 0 || !resp.Partial {
			segments = append(segments, resp)
		}
		if !resp.Partial {
			return mergeSweep(segments, grid)
		}
		if resp.ResumeToken == "" {
			return nil, fmt.Errorf("client: partial sweep without resume token")
		}
		if resp.NextIndex <= next && len(resp.Points) == 0 {
			stalls++
			threshold := c.stallThreshold
			if threshold < 1 {
				threshold = c.maxAttempts
			}
			if stalls >= threshold {
				return nil, fmt.Errorf("client: sweep stalled at grid index %d after %d zero-progress rounds", next, stalls)
			}
			// Back off as if the round had failed: zero progress means the
			// server is saturated or its timeout is tighter than one point.
			stallErr := &APIError{Status: 503, Code: server.CodeBusy, Message: "sweep made no progress"}
			delay := c.delay(stalls, stallErr)
			if c.onRetry != nil {
				c.onRetry(stalls, stallErr, delay)
			}
			if err := c.sleep(ctx, delay); err != nil {
				return nil, err
			}
		} else {
			stalls = 0
			next = resp.NextIndex
		}
		r.Resume = resp.ResumeToken
	}
}

// sleep waits d or until ctx dies.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// mergeSweep concatenates the segments of a resumed sweep into the response
// a single uninterrupted run would have produced: points in grid order,
// Best over all of them, Ratio recomputed exactly. Honest is invariant
// across segments, so it comes from the last one.
func mergeSweep(segments []*SweepResponse, grid int) (*SweepResponse, error) {
	if len(segments) == 1 && !segments[0].Partial && segments[0].StartIndex == 0 {
		return segments[0], nil
	}
	merged := &SweepResponse{}
	want := 0
	for _, seg := range segments {
		if seg.StartIndex != want {
			return nil, fmt.Errorf("client: sweep segment starts at %d, want %d", seg.StartIndex, want)
		}
		merged.Points = append(merged.Points, seg.Points...)
		want = seg.StartIndex + len(seg.Points)
	}
	if want != grid+1 {
		return nil, fmt.Errorf("client: merged sweep covers %d points, want %d", want, grid+1)
	}
	last := segments[len(segments)-1]
	merged.Honest = last.Honest
	honest, err := numeric.Parse(merged.Honest)
	if err != nil {
		return nil, fmt.Errorf("client: bad honest utility %q: %v", merged.Honest, err)
	}
	var bestW1, bestU numeric.Rat
	for i, p := range merged.Points {
		u, err := numeric.Parse(p.U)
		if err != nil {
			return nil, fmt.Errorf("client: bad point utility %q: %v", p.U, err)
		}
		w1, err := numeric.Parse(p.W1)
		if err != nil {
			return nil, fmt.Errorf("client: bad point w1 %q: %v", p.W1, err)
		}
		if i == 0 || bestU.Less(u) {
			bestW1, bestU = w1, u
		}
	}
	merged.BestW1, merged.BestU = bestW1.String(), bestU.String()
	// Same ratio rule as the sweep itself: BestU/Honest when the honest
	// utility is positive, the neutral 1 otherwise. (A positive BestU with
	// zero honest utility cannot reach here — the server rejects it.)
	if honest.Sign() > 0 {
		merged.Ratio = bestU.Div(honest).String()
	} else {
		merged.Ratio = numeric.One.String()
	}
	return merged, nil
}
