package cluster

import (
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// requestKey counts one proxied request by endpoint and status code.
type requestKey struct {
	endpoint string
	code     int
}

// text is the key as "endpoint|code". The scrape lists keys in the order
// of their texts, so "/v1/jobs#list" lists before "/v1/jobs".
func (k requestKey) text() string { return k.endpoint + "|" + strconv.Itoa(k.code) }

// handleMetrics renders the router's Prometheus text exposition: request
// counts, failovers, certificate checks and rejections, lease lifecycle
// counters, membership state, probe totals, and the trace collector's
// aggregated span stats under the irrouter_ prefix.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.PromWriter{W: w, Prefix: "irrouter_"}
	p.Family("requests_total", "counter", "Proxied requests by endpoint and status.")
	r.requestsMu.Lock()
	byText := func(a, b requestKey) int { return strings.Compare(a.text(), b.text()) }
	for _, k := range obs.SortedKeys(r.requests, byText) {
		p.Sample("requests_total", r.requests[k], "endpoint", k.endpoint, "status", strconv.Itoa(k.code))
	}
	r.requestsMu.Unlock()
	p.Scalar("failovers_total", "counter", "Requests retried on the next ring replica.", r.failovers.Load())
	p.Scalar("cert_checks_total", "counter", "Backend certificates re-checked by the router.", r.certChecks.Load())
	p.Scalar("cert_rejections_total", "counter", "Backend answers rejected by the solver-free certificate check.", r.certRejections.Load())
	p.Scalar("lease_grants_total", "counter", "Job placement leases granted.", r.leaseGrants.Load())
	p.Scalar("lease_renewals_total", "counter", "Lease renewals (checkpoint observations).", r.leaseRenewals.Load())
	p.Scalar("lease_replacements_total", "counter", "Jobs re-placed on a survivor after owner death or lease expiry.", r.leaseReplaced.Load())
	p.Scalar("lease_retirements_total", "counter", "Leases retired after their job reached a terminal state.", r.leaseRetired.Load())
	count, appends, syncs := r.leases.stats()
	p.Scalar("leases_active", "gauge", "Live placement leases.", int64(count))
	p.Scalar("lease_wal_appends_total", "counter", "Lease WAL frames appended.", appends)
	p.Scalar("lease_wal_syncs_total", "counter", "Fsync'd lease WAL appends.", syncs)

	okProbes, failProbes := r.members.probeCounts()
	p.Family("probes_total", "counter", "Health probes by result.")
	p.Sample("probes_total", okProbes, "result", "ok")
	p.Sample("probes_total", failProbes, "result", "fail")
	p.Family("node_state", "gauge", "Backend state (1 = the node is in this state).")
	members := r.members.snapshot()
	sort.Slice(members, func(i, j int) bool { return members[i].URL < members[j].URL })
	for _, m := range members {
		for _, st := range []NodeState{StateAlive, StateDead, StateQuarantined} {
			v := int64(0)
			if m.State == st {
				v = 1
			}
			p.Sample("node_state", v, "node", m.URL, "state", string(st))
		}
	}

	if r.col != nil {
		r.col.WritePrometheus(w, "irrouter_")
	}
}
