package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
)

// NodeState is one backend's standing in the cluster.
type NodeState string

const (
	// StateAlive: the last probe succeeded; the node takes traffic.
	StateAlive NodeState = "alive"
	// StateDead: DeadAfter consecutive probes failed; requests skip the
	// node until a probe succeeds again.
	StateDead NodeState = "dead"
	// StateQuarantined: the node answered with a certificate that failed
	// the router's solver-free check. Quarantine outranks liveness — a node
	// that computes wrong answers is worse than one that computes none —
	// and lifts only after QuarantineFor elapses AND a probe succeeds.
	StateQuarantined NodeState = "quarantined"
)

// Member is the router's view of one backend.
type Member struct {
	URL        string
	State      NodeState
	NodeID     string // from the last successful /readyz probe
	QueueDepth int    // from the last successful /readyz probe
	Failures   int    // consecutive failed probes
}

// membership tracks backend health from periodic /readyz probes. All nodes
// start alive — the first probe round corrects optimism within one
// ProbeInterval, and starting pessimistic would make a fresh router reject
// everything until then.
type membership struct {
	mu                   sync.Mutex
	members              map[string]*Member
	deadAfter            int
	quarFor              time.Duration
	quarUntil            map[string]time.Time
	probesOK, probesFail int64 // for /metrics
}

func newMembership(nodes []string, deadAfter int, quarFor time.Duration) *membership {
	m := &membership{
		members:   make(map[string]*Member, len(nodes)),
		deadAfter: deadAfter,
		quarFor:   quarFor,
		quarUntil: make(map[string]time.Time),
	}
	for _, n := range nodes {
		m.members[n] = &Member{URL: n, State: StateAlive}
	}
	return m
}

// alive reports whether node currently takes traffic.
func (m *membership) alive(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[node]
	return ok && mem.State == StateAlive
}

// snapshot returns a copy of every member for introspection.
func (m *membership) snapshot() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	return out
}

// quarantine marks node untrusted for the configured period. A dead node
// can be quarantined too: the sentence outlives its next recovery.
func (m *membership) quarantine(node string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mem, ok := m.members[node]; ok {
		mem.State = StateQuarantined
		m.quarUntil[node] = now.Add(m.quarFor)
	}
}

// markFailed records one failed probe, returning true when the node just
// crossed the death threshold.
func (m *membership) markFailed(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.probesFail++
	mem, ok := m.members[node]
	if !ok {
		return false
	}
	mem.Failures++
	if mem.State == StateAlive && mem.Failures >= m.deadAfter {
		mem.State = StateDead
		return true
	}
	return false
}

// markOK records one successful probe with the node's reported identity and
// queue depth. A dead node rejoins immediately; a quarantined one rejoins
// only once its sentence has expired.
func (m *membership) markOK(node, nodeID string, depth int, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.probesOK++
	mem, ok := m.members[node]
	if !ok {
		return
	}
	mem.Failures = 0
	mem.NodeID = nodeID
	mem.QueueDepth = depth
	switch mem.State {
	case StateDead:
		mem.State = StateAlive
	case StateQuarantined:
		if now.After(m.quarUntil[node]) {
			mem.State = StateAlive
			delete(m.quarUntil, node)
		}
	}
}

func (m *membership) probeCounts() (ok, fail int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.probesOK, m.probesFail
}

// probeOnce probes every member sequentially. The fault site cluster.probe
// fires per probe: an injected error is indistinguishable from a down
// backend, which is exactly how chaos drives the dead→alive cycle.
func (r *Router) probeOnce(ctx context.Context) {
	for _, node := range r.ring.nodes {
		id, depth, err := r.probe(ctx, node)
		if err != nil {
			if r.members.markFailed(node) {
				r.log.Warn("node dead", "node", node)
			}
			continue
		}
		r.members.markOK(node, id, depth, time.Now())
	}
}

// probe performs one /readyz exchange. A 429 (saturated but alive) counts
// as success: the node is healthy, just busy, and killing it would dogpile
// its queue onto the survivors.
func (r *Router) probe(ctx context.Context, node string) (nodeID string, depth int, err error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	if err := fault.Hit(ctx, fault.SiteClusterProbe); err != nil {
		return "", 0, err
	}
	a, err := r.roundTrip(ctx, "", http.MethodGet, node, "/readyz", nil, 1<<20)
	if err != nil {
		return "", 0, err
	}
	if a.status == http.StatusTooManyRequests {
		return "", 0, nil
	}
	if a.status != http.StatusOK {
		return "", 0, fmt.Errorf("cluster: probe %s: status %d", node, a.status)
	}
	var body server.ReadyzResponse
	if err := json.Unmarshal(a.body, &body); err != nil {
		return "", 0, fmt.Errorf("cluster: probe %s: %w", node, err)
	}
	return body.NodeID, body.QueueDepth, nil
}
