package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/server"
)

// Lease state machine (see DESIGN.md):
//
//	grant ──► active ──renew──► active ──done──► retired
//	            │
//	            └── owner dead / TTL expired ──► re-placed (new grant on a
//	                survivor, seeded with the last observed checkpoint)
//
// The lease log is a jobs.Log (leases.wal) with three ops:
//
//   - "grant": full lease (job ID, owner, expiry, submission body);
//     fsync'd — an acknowledged placement must survive a router crash.
//   - "renew": expiry bump plus the checkpoint delta observed since the
//     last renewal; NOT fsync'd — losing a renewal costs recomputation of
//     a few points after a crash, never correctness (points are exact and
//     deterministic, so a stale seed just re-derives the lost tail).
//   - "done": the job reached a terminal state on its owner; fsync'd so a
//     restarted router does not resurrect finished work.
//
// Replay reduces the log to the live lease table: grant upserts, renew
// advances, done deletes. Like the job store, the table compacts once its
// log passes jobs.CompactBytes: the live table is published as
// leases.snapshot.json and the log is truncated. Re-applying a stale log
// over that snapshot converges, because every renew splices its points at
// the lease's length when it was logged.

const (
	leaseWALName      = "leases.wal"
	leaseSnapshotName = "leases.snapshot.json"
)

// Lease is one durable job placement: job ID, owning node, and the
// checkpointed prefix the router has observed — everything needed to
// re-place the job on a survivor if the owner dies.
type Lease struct {
	JobID  string `json:"job_id"`
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Key    string `json:"key"` // placement key the owner was chosen by
	Expiry int64  `json:"expiry_unix_nano"`
	// Body is the original, validated POST /v1/jobs body; a re-placement
	// replays it (content addressing makes the job ID identical) with a
	// Checkpoint seed attached.
	Body      json.RawMessage         `json:"body"`
	NextIndex int                     `json:"next_index"`
	Points    []server.WireSweepPoint `json:"points,omitempty"`
}

type leaseEntry struct {
	Op        string                  `json:"op"` // grant | renew | done
	Lease     *Lease                  `json:"lease,omitempty"`
	ID        string                  `json:"id,omitempty"`
	Expiry    int64                   `json:"expiry_unix_nano,omitempty"`
	Start     int                     `json:"start,omitempty"`
	Points    []server.WireSweepPoint `json:"points,omitempty"`
	NextIndex int                     `json:"next_index,omitempty"`
}

// leaseLog is the crash-safe lease table. With an empty dir it degrades to
// an in-memory table: placements don't survive a router restart, but every
// in-process behavior (renewal, expiry, re-placement) is identical.
type leaseLog struct {
	mu     sync.Mutex
	dir    string
	leases map[string]*Lease
	log    *jobs.Log[leaseEntry] // nil in memory-only mode
}

func openLeaseLog(dir string) (*leaseLog, error) {
	l := &leaseLog{dir: dir, leases: make(map[string]*Lease)}
	if dir == "" {
		return l, nil
	}
	if _, err := jobs.ReadSnapshot(dir, leaseSnapshotName, &l.leases); err != nil {
		return nil, err
	}
	if l.leases == nil {
		return nil, fmt.Errorf("cluster: lease snapshot holds null")
	}
	var err error
	l.log, _, err = jobs.OpenLog(dir, leaseWALName, func(e *leaseEntry) error {
		l.applyLocked(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

func (l *leaseLog) applyLocked(e *leaseEntry) {
	switch e.Op {
	case "grant":
		if e.Lease != nil {
			cp := *e.Lease
			l.leases[cp.JobID] = &cp
		}
	case "renew":
		ls, ok := l.leases[e.ID]
		if !ok {
			return
		}
		ls.Expiry = e.Expiry
		if len(e.Points) > 0 && e.Start <= len(ls.Points) {
			ls.Points = append(ls.Points[:e.Start], e.Points...)
		}
		if e.NextIndex > ls.NextIndex {
			ls.NextIndex = e.NextIndex
		}
	case "done":
		delete(l.leases, e.ID)
	}
}

// append logs one entry through the cluster.lease fault site. An injected
// or real write error leaves the in-memory table untouched — the caller
// degrades (the placement stays unrecorded and is retried) rather than
// diverging from its own log.
func (l *leaseLog) append(ctx context.Context, e *leaseEntry, sync bool) error {
	if err := fault.Hit(ctx, fault.SiteClusterLease); err != nil {
		return err
	}
	if l.log != nil {
		if err := l.log.Append(e, sync); err != nil {
			return err
		}
	}
	l.applyLocked(e)
	if l.log != nil && l.log.Size() > jobs.CompactBytes {
		return l.compactLocked()
	}
	return nil
}

// compactLocked publishes the live table, a JSON object keyed by job ID,
// as the snapshot and truncates the log. It runs after the entry that
// crossed the threshold is applied, so the snapshot holds it.
func (l *leaseLog) compactLocked() error {
	if err := jobs.PublishSnapshot(l.dir, leaseSnapshotName, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(l.leases)
	}); err != nil {
		return err
	}
	return l.log.Truncate()
}

// grant places jobID on node under a TTL starting now.
func (l *leaseLog) grant(ctx context.Context, ls *Lease) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(ctx, &leaseEntry{Op: "grant", Lease: ls}, true)
}

// renew bumps jobID's expiry and records the checkpoint delta since the
// last observation (points [start, start+len)).
func (l *leaseLog) renew(ctx context.Context, id string, expiry time.Time, start int, pts []server.WireSweepPoint, next int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.leases[id]; !ok {
		return fmt.Errorf("cluster: renew of unknown lease %s", id)
	}
	return l.append(ctx, &leaseEntry{
		Op: "renew", ID: id, Expiry: expiry.UnixNano(),
		Start: start, Points: pts, NextIndex: next,
	}, false)
}

// retire removes jobID's lease (the job reached a terminal state).
func (l *leaseLog) retire(ctx context.Context, id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.leases[id]; !ok {
		return nil
	}
	return l.append(ctx, &leaseEntry{Op: "done", ID: id}, true)
}

// get returns a copy of jobID's lease.
func (l *leaseLog) get(id string) (Lease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, ok := l.leases[id]
	if !ok {
		return Lease{}, false
	}
	return ls.clone(), true
}

// all returns copies of every live lease.
func (l *leaseLog) all() []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Lease, 0, len(l.leases))
	for _, ls := range l.leases {
		out = append(out, ls.clone())
	}
	return out
}

// clone copies the lease, points included.
func (ls *Lease) clone() Lease {
	cp := *ls
	cp.Points = append([]server.WireSweepPoint(nil), ls.Points...)
	return cp
}

func (l *leaseLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Close()
	l.log = nil
	return err
}

func (l *leaseLog) stats() (count int, appends, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log != nil {
		appends, syncs, _ = l.log.Counts()
	}
	return len(l.leases), appends, syncs
}
