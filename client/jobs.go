package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Durable jobs API (/v1/jobs): submit a sweep once, poll it to completion,
// survive server restarts in between. The service must run with -data-dir;
// without it every call below fails with code jobs_disabled.

// Job states as reported in Job.State.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobTerminal reports whether a job state is final — done, failed, or
// canceled. WaitJob returns as soon as the polled job reaches one.
func JobTerminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// SubmitJob enqueues a durable job of any kind — "sweep" (the default),
// "enumerate" (exhaustive small-n certification, parameterized by req.Enum),
// "tournament" (req.Tournament), or the scenario kinds "ksybil",
// "coalition", and "topology" (req.Scenario; see SubmitScenario).
// Submission is content-addressed: resubmitting an equivalent
// request returns the existing job with Deduped set instead of new work, so
// retrying a submission whose response was lost is safe.
func (c *Client) SubmitJob(ctx context.Context, req *JobSubmitRequest) (*JobSubmitResponse, error) {
	var out JobSubmitResponse
	if err := c.do(ctx, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitSweep enqueues a durable sweep job (the historical name for
// SubmitJob with the default kind).
func (c *Client) SubmitSweep(ctx context.Context, req *JobSubmitRequest) (*JobSubmitResponse, error) {
	return c.SubmitJob(ctx, req)
}

// GetJob fetches the detail view of one job, including the checkpointed
// point prefix and, once done, the final sweep result.
func (c *Client) GetJob(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.doMethod(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob requests cancellation of a queued or running job and returns its
// state after the request: a queued job is canceled immediately, a running
// one stops at the next grid point. Canceling a terminal job is a 409 with
// code job_terminal.
func (c *Client) CancelJob(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.doMethod(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobListQuery selects a page of GET /v1/jobs. The zero value lists from the
// beginning with the server's default page size.
type JobListQuery struct {
	Cursor uint64 // resume from a previous page's NextCursor
	Limit  int    // page size (server default when 0)
	State  string // filter to one state ("" = all)
	Kind   string // filter to one job kind ("" = all)
}

// ListJobs fetches one page of jobs in submission order. Walk pages by
// feeding NextCursor back as Cursor until it comes back zero.
func (c *Client) ListJobs(ctx context.Context, q JobListQuery) (*JobListResponse, error) {
	v := url.Values{}
	if q.Cursor != 0 {
		v.Set("cursor", strconv.FormatUint(q.Cursor, 10))
	}
	if q.Limit != 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.State != "" {
		v.Set("state", q.State)
	}
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	path := "/v1/jobs"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	var out JobListResponse
	if err := c.doMethod(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it reaches a terminal state and returns that
// final view (including failed and canceled — inspect Job.State). Polling
// backs off exponentially from the client's base delay to its max delay;
// each individual poll additionally gets the client's usual transport
// retries. The context bounds the total wait.
func (c *Client) WaitJob(ctx context.Context, id string) (*Job, error) {
	d := c.baseDelay
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("client: wait job %s: %w", id, err)
		}
		if JobTerminal(job.State) {
			return job, nil
		}
		if err := c.sleep(ctx, c.jitter(d)); err != nil {
			return nil, err
		}
		if d *= 2; d > c.maxDelay || d <= 0 {
			d = c.maxDelay
		}
	}
}

// jitter spreads a polling delay over [d/2, d] so a fleet of waiters does
// not synchronize against the service.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}
