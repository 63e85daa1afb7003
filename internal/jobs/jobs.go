// Package jobs is the durable asynchronous job subsystem: the first piece
// of irshared state that survives the process. It turns long-running
// computations — today the Sybil split-utility sweeps, the headline
// experiment of the paper — into persistent jobs that a restart resumes
// instead of loses.
//
// The package has two halves:
//
//   - Store: a crash-safe on-disk job store. Every mutation is appended to
//     a CRC-checked write-ahead log and fsync'd on state transitions;
//     checkpoint appends ride the log without fsync (losing an un-synced
//     checkpoint suffix only means recomputing those grid points — results
//     are exact either way). The log is periodically compacted into an
//     atomically written snapshot. Jobs are content-addressed by the
//     canonical instance key, so duplicate submissions dedupe to one job.
//
//   - Scheduler: drains a priority/FIFO queue into a shared par.Limiter
//     worker pool, checkpoints partial results to the store as the runner
//     produces them, and on startup recovers queued/running jobs from their
//     last checkpoint — the recovered job completes bit-identically to an
//     uninterrupted run, because grid points are independent and exact.
//
// The package is deliberately ignorant of what a job computes: the Spec is
// opaque JSON and the computation is a Runner callback installed by the
// server, so jobs stays free of graph/solver dependencies and the server
// stays the single owner of wire formats.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"time"
)

// State is the lifecycle position of a job.
type State string

const (
	// StateQueued: accepted and waiting for a worker slot (also the state a
	// recovered in-flight job returns to on restart).
	StateQueued State = "queued"
	// StateRunning: a worker is executing the job.
	StateRunning State = "running"
	// StateDone: finished successfully; Result holds the final answer.
	StateDone State = "done"
	// StateFailed: the runner returned a non-cancellation error.
	StateFailed State = "failed"
	// StateCanceled: canceled by request before completion.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final: a terminal job never runs
// again (though a failed or canceled one may be resubmitted, which requeues
// the same job ID with a fresh attempt).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// valid reports whether s is one of the five states; replay uses it to
// reject records from a corrupt or future log.
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Point is one checkpointed unit of partial result: an exactly evaluated
// sweep point in canonical wire form. Rationals stay strings here so the
// store never depends on the numeric package — and so what is persisted is
// byte-for-byte what the API serves.
type Point struct {
	W1 string `json:"w1"`
	U  string `json:"u"`
}

// Record is the persistent form of one job. The store owns the canonical
// copy; callers receive clones (see Record.clone) so readers never race the
// scheduler's mutations.
type Record struct {
	// ID is derived from Key (see IDForKey): content-addressing makes
	// duplicate submissions converge on one job.
	ID string `json:"id"`
	// Key is the canonical dedupe key — for sweeps, the canonical instance
	// encoding plus the agent and grid.
	Key string `json:"key"`
	// Kind names the job type: one of the server's job kinds ("sweep",
	// "enumerate", "tournament", "ksybil", "coalition", "topology").
	Kind string `json:"kind"`
	// Spec is the opaque job specification, owned by the submitter (the
	// server stores its normalized wire request here and rebuilds the
	// computation from it after a restart).
	Spec []byte `json:"spec"`
	// Priority orders the queue: higher runs first; FIFO within a priority.
	Priority int `json:"priority"`
	// Seq is the submission sequence number (FIFO tiebreak and list cursor).
	Seq uint64 `json:"seq"`
	// Attempt counts submissions of this ID: 1 on first submit, +1 each
	// time a failed/canceled job is resubmitted.
	Attempt int `json:"attempt"`

	State State `json:"state"`
	// Error holds the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Result is the final answer of a done job (opaque JSON, owned by the
	// submitter like Spec).
	Result []byte `json:"result,omitempty"`

	// NextIndex is the checkpoint cursor: the first unit of work not yet
	// covered by Points. A recovered job resumes here.
	NextIndex int `json:"next_index"`
	// Points is the accumulated partial result, contiguous from the start
	// of the job. The WAL persists deltas; snapshots persist the whole set.
	Points []Point `json:"points,omitempty"`

	// CreatedUnixNano/StartedUnixNano/FinishedUnixNano timestamp the
	// lifecycle (0 = not reached). Started reflects the most recent attempt.
	CreatedUnixNano  int64 `json:"created_unix_nano"`
	StartedUnixNano  int64 `json:"started_unix_nano,omitempty"`
	FinishedUnixNano int64 `json:"finished_unix_nano,omitempty"`

	// CancelRequested marks a cancellation in flight: set when a running
	// job is asked to stop, so the worker can tell an API cancel from a
	// shutdown requeue when its context dies.
	CancelRequested bool `json:"cancel_requested,omitempty"`
}

// clone deep-copies the record (Points, Spec and Result are shared-read
// slices internally, so only the slice headers and the point slice need
// copying — Point values and the byte slices are never mutated in place).
func (r *Record) clone() *Record {
	c := *r
	if r.Points != nil {
		c.Points = make([]Point, len(r.Points))
		copy(c.Points, r.Points)
	}
	return &c
}

// Age returns the job's queued-to-finished duration (terminal jobs) or its
// age so far (live jobs), against now.
func (r *Record) Age(now time.Time) time.Duration {
	end := now.UnixNano()
	if r.FinishedUnixNano > 0 {
		end = r.FinishedUnixNano
	}
	return time.Duration(end - r.CreatedUnixNano)
}

// IDForKey derives the content-addressed job ID from the canonical dedupe
// key: "j" plus the first 16 hex digits of SHA-256(key). Stable across
// processes, so a resubmission after restart still dedupes.
func IDForKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "j" + hex.EncodeToString(sum[:8])
}
