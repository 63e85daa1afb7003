package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Durable job placement: POST /v1/jobs is routed like any compute request,
// but the router additionally records a TTL lease binding the accepted job
// to its owning node. The supervision loop renews leases by polling the
// owner's job detail — capturing every new checkpoint point into the lease
// — and re-places the job on a survivor, seeded with that checkpoint, when
// the owner dies or the lease expires. Content-addressed job IDs make the
// re-placement idempotent, and exact arithmetic makes the final result
// bit-identical to an uninterrupted single-node run.

// handleJobSubmit places one durable job under a lease.
func (r *Router) handleJobSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "unreadable request body")
		return
	}
	var sub server.JobSubmitRequest
	if err := json.Unmarshal(body, &sub); err != nil {
		// Forward anyway: the backend produces the catalogue 400.
		r.forward(req.Context(), w, req, "/v1/jobs", body, r.aliveSequence("/v1/jobs"), nil)
		return
	}
	// Placement comes from the server's job-kind table: graph-bound kinds
	// land where their instance's cache is warm, and neither the priority
	// nor a checkpoint seed moves a job to another node.
	key, keyed := server.JobPlacementKey(&sub)
	if !keyed {
		key = "/v1/jobs"
	}
	ctx := req.Context()
	seq := r.aliveSequence(key)
	if len(seq) == 0 {
		writeError(w, http.StatusServiceUnavailable, CodeNoBackends, "no live backend nodes")
		return
	}
	if len(seq) > 2 {
		seq = seq[:2] // single-retry hedging, like every proxied request
	}
	var lastErr error
	for i, node := range seq {
		if i > 0 {
			r.failovers.Add(1)
		}
		status, hdr, respBody, err := r.exchange(ctx, node, req, "/v1/jobs", body)
		if err != nil || status == http.StatusBadGateway || status == http.StatusGatewayTimeout {
			if err == nil {
				err = fmt.Errorf("cluster: node %s answered %d", node, status)
			}
			lastErr = err
			continue
		}
		if status == http.StatusAccepted || status == http.StatusOK {
			var jr server.JobSubmitResponse
			if err := json.Unmarshal(respBody, &jr); err == nil && jr.Job.ID != "" && !terminalState(jr.Job.State) {
				ls := &Lease{
					JobID:  jr.Job.ID,
					Node:   node,
					Kind:   jr.Job.Kind,
					Key:    key,
					Expiry: time.Now().Add(r.cfg.LeaseTTL).UnixNano(),
					Body:   json.RawMessage(body),
				}
				if err := r.leases.grant(ctx, ls); err != nil {
					// The backend accepted the job but the placement is
					// unrecorded — an unsupervised job would never fail over.
					// Fail the request instead: resubmission dedupes to the
					// same job ID and only the grant is retried.
					r.log.Warn("lease grant failed", "job", jr.Job.ID, "err", err)
					writeErrorDetail(w, http.StatusServiceUnavailable, CodeLeaseUnavailable,
						"job accepted but lease not persisted; retry the submission", err.Error())
					return
				}
				r.leaseGrants.Add(1)
			}
		}
		copyHeaders(w, hdr)
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	writeErrorDetail(w, http.StatusBadGateway, CodeBadGateway,
		"backend placement and failover replica both failed", fmt.Sprint(lastErr))
}

// handleJobGet proxies a job lookup to its lease owner; jobs the router
// never placed (or whose lease is retired) are searched across the live
// membership.
func (r *Router) handleJobGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if ls, ok := r.leases.get(id); ok {
		if r.members.alive(ls.Node) {
			r.forward(req.Context(), w, req, "/v1/jobs/"+id, nil, []string{ls.Node}, nil)
			return
		}
		// The owner is down and re-placement is pending: answer from the
		// lease's observed checkpoint so pollers see a queued job making its
		// way to a survivor instead of a spurious 404.
		writeJSON(w, http.StatusOK, server.WireJob{
			ID: ls.JobID, Kind: ls.Kind, State: "queued",
			NextIndex: len(ls.Points), Points: ls.Points,
		})
		return
	}
	r.fanFind(w, req, id)
}

// handleJobList answers GET /v1/jobs cluster-wide: fan out to every live
// node (forwarding the state/kind filters), merge the answers with the
// lease table, and dedupe by job ID. Per-node cursors do not compose across
// a fleet, so the merged view is unpaginated — each node is drained page by
// page and ?cursor is rejected; ?limit caps the merged answer after the
// sort. A job listed by two nodes (a failover re-placement whose old owner
// still holds a stale copy) keeps the more advanced entry: terminal state
// first, then the higher checkpoint index. Leased jobs whose owner is
// currently unreachable appear as queued entries from the lease's observed
// checkpoint, exactly like handleJobGet; nodes that fail mid-fan-out are
// skipped the same way rather than failing the whole view.
func (r *Router) handleJobList(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	if q.Get("cursor") != "" {
		writeError(w, http.StatusBadRequest, "bad_body",
			"cluster-wide job lists are unpaginated; drop the cursor parameter")
		return
	}
	limit := 0
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad_body", "limit must be a positive integer")
			return
		}
		limit = n
	}
	filter := url.Values{}
	for _, k := range []string{"state", "kind"} {
		if v := q.Get(k); v != "" {
			filter.Set(k, v)
		}
	}

	merged := map[string]server.WireJob{}
	for _, node := range r.aliveSequence("/v1/jobs") {
		cursor := uint64(0)
		for {
			pageQ := url.Values{}
			for k, vs := range filter {
				pageQ[k] = vs
			}
			if cursor != 0 {
				pageQ.Set("cursor", strconv.FormatUint(cursor, 10))
			}
			// exchange forwards the proxied request's own query string, which
			// here carries the router-level limit (post-merge) and would
			// double the filters; hand it a clone with the per-page query.
			nreq := req.Clone(req.Context())
			nreq.URL.RawQuery = pageQ.Encode()
			status, hdr, respBody, err := r.exchange(req.Context(), node, nreq, "/v1/jobs", nil)
			if err != nil {
				break // unreachable mid-fan-out: the lease merge below covers its leased jobs
			}
			if status == http.StatusBadRequest {
				// An invalid filter is invalid on every node; answer with the
				// backend's catalogue error.
				copyHeaders(w, hdr)
				w.WriteHeader(status)
				w.Write(respBody)
				return
			}
			if status != http.StatusOK {
				break // jobs disabled on this node, or a gateway-grade failure
			}
			var page server.JobListResponse
			if err := json.Unmarshal(respBody, &page); err != nil {
				break
			}
			for _, j := range page.Jobs {
				if cur, ok := merged[j.ID]; !ok || jobFresher(j, cur) {
					merged[j.ID] = j
				}
			}
			if page.NextCursor == 0 {
				break
			}
			cursor = page.NextCursor
		}
	}

	// Leased jobs nobody listed — owner dead, unreachable, or its store
	// wiped — surface as queued from the router's observation, so the fleet
	// view never silently drops supervised work.
	state, kind := q.Get("state"), q.Get("kind")
	for _, ls := range r.leases.all() {
		if _, ok := merged[ls.JobID]; ok {
			continue
		}
		if (state != "" && state != "queued") || (kind != "" && kind != ls.Kind) {
			continue
		}
		merged[ls.JobID] = server.WireJob{
			ID: ls.JobID, Kind: ls.Kind, State: "queued", NextIndex: len(ls.Points),
		}
	}

	jobs := make([]server.WireJob, 0, len(merged))
	for _, j := range merged {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].CreatedAt != jobs[k].CreatedAt {
			return jobs[i].CreatedAt < jobs[k].CreatedAt
		}
		return jobs[i].ID < jobs[k].ID
	})
	if limit > 0 && len(jobs) > limit {
		jobs = jobs[:limit]
	}
	writeJSON(w, http.StatusOK, server.JobListResponse{Jobs: jobs})
}

// jobFresher reports whether a beats b as the authoritative view of one job:
// a terminal state beats a live one, then more checkpointed progress wins.
func jobFresher(a, b server.WireJob) bool {
	if terminalState(a.State) != terminalState(b.State) {
		return terminalState(a.State)
	}
	return a.NextIndex > b.NextIndex
}

// handleJobCancel proxies a cancellation and retires the lease once the
// backend confirms: a canceled job must not be resurrected by re-placement.
func (r *Router) handleJobCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	nodes := r.aliveSequence(id)
	if ls, ok := r.leases.get(id); ok && r.members.alive(ls.Node) {
		nodes = []string{ls.Node}
	}
	var lastErr error
	for _, node := range nodes {
		status, hdr, respBody, err := r.exchange(req.Context(), node, req, "/v1/jobs/"+id, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if status == http.StatusNotFound && len(nodes) > 1 {
			continue
		}
		if status < http.StatusMultipleChoices || status == http.StatusConflict {
			if err := r.leases.retire(req.Context(), id); err != nil {
				r.log.Warn("lease retire failed", "job", id, "err", err)
			} else {
				r.leaseRetired.Add(1)
			}
		}
		copyHeaders(w, hdr)
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	if lastErr != nil {
		writeErrorDetail(w, http.StatusBadGateway, CodeBadGateway, "no backend could cancel the job", lastErr.Error())
		return
	}
	writeError(w, http.StatusNotFound, "not_found", "no such job on any live node")
}

// fanFind asks every live node for the job and forwards the first non-404.
func (r *Router) fanFind(w http.ResponseWriter, req *http.Request, id string) {
	var lastErr error
	for _, node := range r.aliveSequence(id) {
		status, hdr, respBody, err := r.exchange(req.Context(), node, req, "/v1/jobs/"+id, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if status == http.StatusNotFound {
			continue
		}
		copyHeaders(w, hdr)
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	if lastErr != nil {
		writeErrorDetail(w, http.StatusBadGateway, CodeBadGateway, "job lookup failed on every live node", lastErr.Error())
		return
	}
	writeError(w, http.StatusNotFound, "not_found", "no such job on any live node")
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "canceled"
}

// superviseLeases is one pass of the lease loop: poll every leased job's
// owner, renew with the freshly observed checkpoint, retire finished jobs,
// and re-place jobs whose owner is dead, gone, or silent past the TTL.
func (r *Router) superviseLeases(ctx context.Context) {
	for _, ls := range r.leases.all() {
		now := time.Now()
		job, status, err := r.pollJob(ctx, ls.Node, ls.JobID)
		switch {
		case err == nil && status == http.StatusOK && terminalState(job.State):
			if rerr := r.leases.retire(ctx, ls.JobID); rerr != nil {
				r.log.Warn("lease retire failed", "job", ls.JobID, "err", rerr)
			} else {
				r.leaseRetired.Add(1)
			}
		case err == nil && status == http.StatusOK:
			start := len(ls.Points)
			var delta []server.WireSweepPoint
			if len(job.Points) > start {
				delta = job.Points[start:]
			}
			if rerr := r.leases.renew(ctx, ls.JobID, now.Add(r.cfg.LeaseTTL), start, delta, job.NextIndex); rerr != nil {
				// A failed renewal (lease fault site, write error) is only a
				// missed heartbeat: the lease keeps its old expiry and the
				// next pass retries. Degradation, not corruption.
				r.log.Warn("lease renew failed", "job", ls.JobID, "err", rerr)
			} else {
				r.leaseRenewals.Add(1)
			}
		case err == nil && status == http.StatusNotFound:
			// The owner lost the job (wiped store): re-place now.
			r.replaceLease(ctx, ls)
		default:
			// Owner unreachable or answering garbage. Re-place once it is
			// declared dead or the lease has expired — not before, so a
			// single slow poll doesn't double-run a healthy job.
			if !r.members.alive(ls.Node) || now.UnixNano() > ls.Expiry {
				r.replaceLease(ctx, ls)
			}
		}
	}
}

// pollJob fetches one job's detail view from a node.
func (r *Router) pollJob(ctx context.Context, node, id string) (*server.WireJob, int, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	ctx, sp := obs.Start(ctx, "router.lease_poll")
	sp.SetAttr("node", node)
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var job server.WireJob
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, 0, fmt.Errorf("cluster: job detail from %s: %w", node, err)
	}
	return &job, resp.StatusCode, nil
}

// replaceLease re-places a lost job on a survivor, seeding the submission
// with the lease's observed checkpoint so the new owner resumes instead of
// restarting. The original body is replayed — content addressing gives the
// identical job ID — with only the Checkpoint field added.
func (r *Router) replaceLease(ctx context.Context, ls Lease) {
	var survivors []string
	for _, n := range r.aliveSequence(ls.Key) {
		if n != ls.Node {
			survivors = append(survivors, n)
		}
	}
	if len(survivors) == 0 {
		// The old owner may be the only live node (e.g. its store was wiped
		// but the process lives): resubmitting there is still correct.
		if r.members.alive(ls.Node) {
			survivors = []string{ls.Node}
		} else {
			r.log.Warn("no survivor for lease; will retry", "job", ls.JobID)
			return
		}
	}
	var sub server.JobSubmitRequest
	if err := json.Unmarshal(ls.Body, &sub); err != nil {
		r.log.Error("lease body undecodable; dropping lease", "job", ls.JobID, "err", err)
		if rerr := r.leases.retire(ctx, ls.JobID); rerr != nil {
			r.log.Warn("lease retire failed", "job", ls.JobID, "err", rerr)
		}
		return
	}
	sub.Checkpoint = &server.JobCheckpoint{NextIndex: len(ls.Points), Points: ls.Points}
	body, err := json.Marshal(&sub)
	if err != nil {
		r.log.Error("lease re-placement encode failed", "job", ls.JobID, "err", err)
		return
	}
	node := survivors[0]
	status, _, respBody, err := r.postJSON(ctx, node, "/v1/jobs", body)
	if err != nil || (status != http.StatusAccepted && status != http.StatusOK) {
		r.log.Warn("lease re-placement failed; will retry", "job", ls.JobID, "node", node,
			"status", status, "err", err)
		return
	}
	var jr server.JobSubmitResponse
	if err := json.Unmarshal(respBody, &jr); err != nil || jr.Job.ID == "" {
		r.log.Warn("lease re-placement answer undecodable; will retry", "job", ls.JobID, "node", node)
		return
	}
	if terminalState(jr.Job.State) {
		// The survivor already has the finished job (it ran there before).
		if rerr := r.leases.retire(ctx, ls.JobID); rerr == nil {
			r.leaseRetired.Add(1)
		}
		return
	}
	nls := &Lease{
		JobID:     jr.Job.ID,
		Node:      node,
		Kind:      ls.Kind,
		Key:       ls.Key,
		Expiry:    time.Now().Add(r.cfg.LeaseTTL).UnixNano(),
		Body:      ls.Body,
		NextIndex: len(ls.Points),
		Points:    ls.Points,
	}
	if err := r.leases.grant(ctx, nls); err != nil {
		r.log.Warn("re-placement lease grant failed; will retry", "job", ls.JobID, "err", err)
		return
	}
	r.leaseReplaced.Add(1)
	r.log.Info("job re-placed", "job", ls.JobID, "from", ls.Node, "to", node,
		"resume_from", len(ls.Points))
}

// postJSON performs one bare POST (no statusWriter plumbing) for the lease
// loop.
func (r *Router) postJSON(ctx context.Context, node, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, raw, nil
}
