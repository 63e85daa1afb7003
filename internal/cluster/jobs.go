package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/jobs"
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
		server.WriteError(w, http.StatusBadRequest, "bad_body", "unreadable request body")
		return
	}
	// Placement comes from the server's job-kind table: graph-bound kinds
	// land where their instance's cache is warm, and neither the priority
	// nor a checkpoint seed moves a job to another node. A body that does
	// not decode goes anywhere, unleased; the backend produces the
	// catalogue 400.
	var sub server.JobSubmitRequest
	key, decoded := "/v1/jobs", json.Unmarshal(body, &sub) == nil
	if decoded {
		if k, ok := server.JobPlacementKey(&sub); ok {
			key = k
		}
	}
	ctx := req.Context()
	node, a, ok := r.failover(ctx, w, req, "/v1/jobs", body, r.aliveSequence(key), nil)
	if !ok {
		return
	}
	if decoded && (a.status == http.StatusAccepted || a.status == http.StatusOK) {
		var jr server.JobSubmitResponse
		if err := json.Unmarshal(a.body, &jr); err == nil && jr.Job.ID != "" && !jobs.State(jr.Job.State).Terminal() {
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
				server.WriteErrorDetail(w, http.StatusServiceUnavailable, CodeLeaseUnavailable,
					"job accepted but lease not persisted; retry the submission", err.Error())
				return
			}
			r.leaseGrants.Add(1)
		}
	}
	a.write(w)
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
		server.WriteJSON(w, http.StatusOK, server.WireJob{
			ID: ls.JobID, Kind: ls.Kind, State: "queued",
			NextIndex: len(ls.Points), Points: ls.Points,
		})
		return
	}
	if a, ok := r.findJob(w, req, id, r.aliveSequence(id), "job lookup failed on every live node"); ok {
		a.write(w)
	}
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
		server.WriteError(w, http.StatusBadRequest, "bad_body",
			"cluster-wide job lists are unpaginated; drop the cursor parameter")
		return
	}
	limit := 0
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			server.WriteError(w, http.StatusBadRequest, "bad_body", "limit must be a positive integer")
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
		filter.Del("cursor")
		for {
			// The page query replaces the client's, whose limit applies to
			// the merged view.
			a, err := r.roundTrip(req.Context(), "router.forward", req.Method, node, withQuery("/v1/jobs", filter.Encode()), nil, maxBody)
			if err != nil {
				break // unreachable mid-fan-out: the lease merge below covers its leased jobs
			}
			if a.status == http.StatusBadRequest {
				// An invalid filter is invalid on every node; answer with the
				// backend's catalogue error.
				a.write(w)
				return
			}
			if a.status != http.StatusOK {
				break // jobs disabled on this node, or a gateway-grade failure
			}
			var page server.JobListResponse
			if err := json.Unmarshal(a.body, &page); err != nil {
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
			filter.Set("cursor", strconv.FormatUint(page.NextCursor, 10))
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

	list := make([]server.WireJob, 0, len(merged))
	for _, j := range merged {
		list = append(list, j)
	}
	sort.Slice(list, func(i, k int) bool {
		if list[i].CreatedAt != list[k].CreatedAt {
			return list[i].CreatedAt < list[k].CreatedAt
		}
		return list[i].ID < list[k].ID
	})
	if limit > 0 && len(list) > limit {
		list = list[:limit]
	}
	server.WriteJSON(w, http.StatusOK, server.JobListResponse{Jobs: list})
}

// jobFresher reports whether a beats b as the authoritative view of one job:
// a terminal state beats a live one, then more checkpointed progress wins.
func jobFresher(a, b server.WireJob) bool {
	if ta := jobs.State(a.State).Terminal(); ta != jobs.State(b.State).Terminal() {
		return ta
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
	a, ok := r.findJob(w, req, id, nodes, "no backend could cancel the job")
	if !ok {
		return
	}
	if a.status < http.StatusMultipleChoices || a.status == http.StatusConflict {
		r.retireLease(req.Context(), id)
	}
	a.write(w)
}

// retireLease retires the lease of a job that reached a terminal state.
func (r *Router) retireLease(ctx context.Context, id string) {
	if err := r.leases.retire(ctx, id); err != nil {
		r.log.Warn("lease retire failed", "job", id, "err", err)
		return
	}
	r.leaseRetired.Add(1)
}

// findJob asks nodes in turn for job id, with req's method and query, and
// returns the first answer that is not a 404. When there is none it answers
// the client itself — 502 with failMsg if a node could not be reached,
// else 404, or a retryable 503 while some member was not asked — and
// reports false.
func (r *Router) findJob(w http.ResponseWriter, req *http.Request, id string, nodes []string, failMsg string) (reply, bool) {
	var lastErr error
	for _, node := range nodes {
		a, err := r.roundTrip(req.Context(), "router.forward", req.Method, node, withQuery("/v1/jobs/"+id, req.URL.RawQuery), nil, maxBody)
		if err != nil {
			lastErr = err
			continue
		}
		if a.status != http.StatusNotFound {
			return a, true
		}
	}
	switch {
	case lastErr != nil:
		server.WriteErrorDetail(w, http.StatusBadGateway, CodeBadGateway, failMsg, lastErr.Error())
	case len(nodes) < len(r.ring.nodes):
		// A 404 from every asked node is a 404 only when every ring member
		// was asked: a finished job's lease is retired, so while its owner
		// is down or quarantined nothing else knows where the job lives.
		secs := int((r.cfg.ProbeInterval + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		server.WriteError(w, http.StatusServiceUnavailable, CodeJobUnreachable,
			"job not found on any live node; a node that is down may hold it")
	default:
		server.WriteError(w, http.StatusNotFound, "not_found", "no such job on any node")
	}
	return reply{}, false
}

// superviseLeases is one pass of the lease loop: poll every leased job's
// owner, renew with the freshly observed checkpoint, retire finished jobs,
// and re-place jobs whose owner is dead, gone, or silent past the TTL.
func (r *Router) superviseLeases(ctx context.Context) {
	for _, ls := range r.leases.all() {
		now := time.Now()
		job, status, err := r.pollJob(ctx, ls.Node, ls.JobID)
		switch {
		case err == nil && status == http.StatusOK && jobs.State(job.State).Terminal():
			r.retireLease(ctx, ls.JobID)
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
	a, err := r.roundTrip(ctx, "router.lease_poll", http.MethodGet, node, "/v1/jobs/"+id, nil, maxBody)
	if err != nil || a.status != http.StatusOK {
		return nil, a.status, err
	}
	var job server.WireJob
	if err := json.Unmarshal(a.body, &job); err != nil {
		return nil, 0, fmt.Errorf("cluster: job detail from %s: %w", node, err)
	}
	return &job, a.status, nil
}

// replaceLease re-places a lost job on a survivor, seeding the submission
// with the lease's observed checkpoint so the new owner resumes instead of
// restarting. The original body is replayed — content addressing gives the
// identical job ID — with only the Checkpoint field added.
func (r *Router) replaceLease(ctx context.Context, ls Lease) {
	node := ""
	for _, n := range r.aliveSequence(ls.Key) {
		if n != ls.Node {
			node = n
			break
		}
	}
	if node == "" {
		// The old owner may be the only live node (e.g. its store was wiped
		// but the process lives): resubmitting there is still correct.
		if !r.members.alive(ls.Node) {
			r.log.Warn("no survivor for lease; will retry", "job", ls.JobID)
			return
		}
		node = ls.Node
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
	a, err := r.roundTrip(ctx, "", http.MethodPost, node, "/v1/jobs", body, maxBody)
	if err != nil || (a.status != http.StatusAccepted && a.status != http.StatusOK) {
		r.log.Warn("lease re-placement failed; will retry", "job", ls.JobID, "node", node,
			"status", a.status, "err", err)
		return
	}
	var jr server.JobSubmitResponse
	if err := json.Unmarshal(a.body, &jr); err != nil || jr.Job.ID == "" {
		r.log.Warn("lease re-placement answer undecodable; will retry", "job", ls.JobID, "node", node)
		return
	}
	if jobs.State(jr.Job.State).Terminal() {
		// The survivor already has the finished job (it ran there before).
		r.retireLease(ctx, ls.JobID)
		return
	}
	// The new lease keeps the kind, key, body and observed checkpoint.
	nls := ls
	nls.JobID, nls.Node, nls.NextIndex = jr.Job.ID, node, len(ls.Points)
	nls.Expiry = time.Now().Add(r.cfg.LeaseTTL).UnixNano()
	if err := r.leases.grant(ctx, &nls); err != nil {
		r.log.Warn("re-placement lease grant failed; will retry", "job", ls.JobID, "err", err)
		return
	}
	r.leaseReplaced.Add(1)
	r.log.Info("job re-placed", "job", ls.JobID, "from", ls.Node, "to", node,
		"resume_from", len(ls.Points))
}
