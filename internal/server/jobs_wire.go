package server

import "encoding/json"

// Wire types of the /v1/jobs API: durable, resumable background jobs
// executed by the scheduler in internal/jobs. Six kinds exist (the table in
// jobs.go): "sweep" (the default) walks one agent's split-utility curve
// under a chosen mechanism; "enumerate" exhaustively certifies every small
// ring over a rational lattice (internal/cert/enum); "tournament" evaluates
// every selected mechanism on an instance set (internal/mechanism); and
// "ksybil", "coalition" and "topology" run the scenario scans of
// /v1/scenario (internal/scenario). Submission is content-addressed — the
// job ID derives from the canonical parameters, mechanism included — so
// resubmitting equivalent work returns the existing job instead of
// duplicating it.

// JobSubmitRequest is the body of POST /v1/jobs. Kind selects the job type:
// "" or "sweep" runs the agent-V sweep of Graph at Grid+1 points (0 =
// default 64) under Mechanism ("" = default "bd"); "enumerate" runs the
// exhaustive small-n certification described by Enum; "tournament" runs the
// cross-mechanism evaluation described by Tournament (Graph/V/Grid/Mechanism
// are ignored for the latter two). Priority orders the scheduler queue
// (higher first, FIFO within a priority).
type JobSubmitRequest struct {
	Kind       string             `json:"kind,omitempty"`
	Graph      WireGraph          `json:"graph,omitempty"`
	V          int                `json:"v,omitempty"`
	Grid       int                `json:"grid,omitempty"`
	Mechanism  string             `json:"mechanism,omitempty"`
	Priority   int                `json:"priority,omitempty"`
	Enum       *EnumJobRequest    `json:"enum,omitempty"`
	Tournament *TournamentRequest `json:"tournament,omitempty"`
	// Scenario parameterizes the kinds "ksybil", "coalition", and
	// "topology": the same body as POST /v1/scenario, with its kind either
	// empty or equal to the job kind (Graph/V/Grid/Mechanism at this level
	// are ignored for scenario kinds).
	Scenario   *ScenarioRequest `json:"scenario,omitempty"`
	Checkpoint *JobCheckpoint   `json:"checkpoint,omitempty"`
}

// JobCheckpoint seeds a submission with progress already computed
// elsewhere: the cluster router re-places a job from a dead node onto a
// survivor with the last checkpoint it observed, so the new node resumes at
// NextIndex instead of restarting from zero. Points are the completed
// prefix (indices [0, NextIndex)) in the kind's checkpoint encoding, and
// NextIndex must equal len(Points). The seed only applies when the
// submission creates or restarts the job — deduping to a live or finished
// job keeps that job's own progress, which is never behind the router's
// observation of it.
type JobCheckpoint struct {
	NextIndex int              `json:"next_index"`
	Points    []WireSweepPoint `json:"points"`
}

// EnumJobRequest parameterizes a kind "enumerate" job: certify every
// canonical ring with MinN..MaxN vertices and integer weights 1..Levels
// (zero values select the enum package defaults 3/6/3), optimizing each
// instance on Grid and archiving the near-tight frontier at threshold
// 2−Eps. Eps is a rational string ("1/2" when empty).
type EnumJobRequest struct {
	MinN   int    `json:"min_n,omitempty"`
	MaxN   int    `json:"max_n,omitempty"`
	Levels int    `json:"levels,omitempty"`
	Grid   int    `json:"grid,omitempty"`
	Eps    string `json:"eps,omitempty"`
}

// sweepJobSpec is the persisted job specification: enough to re-derive the
// computation after a restart. The graph is stored in its canonical wire
// form so recovery does not depend on how the submitter spelled it.
// Mechanism is the resolved backend name; empty in specs persisted before
// the mechanism registry existed, which resolves to the default "bd" — so
// pre-existing job stores replay unchanged.
type sweepJobSpec struct {
	Graph     WireGraph `json:"graph"`
	V         int       `json:"v"`
	Grid      int       `json:"grid"`
	Mechanism string    `json:"mechanism,omitempty"`
}

// enumJobSpec is the persisted specification of an enumerate job. All
// fields are resolved (defaults applied, Eps canonical) at submission, and
// Total pins the instance count so progress reporting and resume never
// depend on re-walking the lattice.
type enumJobSpec struct {
	MinN   int    `json:"min_n"`
	MaxN   int    `json:"max_n"`
	Levels int    `json:"levels"`
	Grid   int    `json:"grid"`
	Eps    string `json:"eps"`
	Total  int    `json:"total"`
}

// WireJob is the API view of one job. Points carries the checkpointed
// prefix (indices [0, NextIndex)) in the kind's point encoding (DESIGN.md
// §5c) and is populated only on the detail view. Result is the final body
// once the job is done, byte-identical to the inline answer of the same
// request: a SweepResponse, an enum.Summary, a TournamentResponse, or a
// ScenarioResponse.
type WireJob struct {
	ID          string           `json:"id"`
	Kind        string           `json:"kind"`
	State       string           `json:"state"`
	Attempt     int              `json:"attempt"`
	Priority    int              `json:"priority,omitempty"`
	Error       string           `json:"error,omitempty"`
	NextIndex   int              `json:"next_index"`
	TotalPoints int              `json:"total_points,omitempty"`
	Points      []WireSweepPoint `json:"points,omitempty"`
	Result      json.RawMessage  `json:"result,omitempty"`
	CreatedAt   int64            `json:"created_unix_nano,omitempty"`
	StartedAt   int64            `json:"started_unix_nano,omitempty"`
	FinishedAt  int64            `json:"finished_unix_nano,omitempty"`
}

// JobSubmitResponse is the body of a POST /v1/jobs answer. Deduped reports
// that the submission matched an existing queued, running, or done job and
// no new work was enqueued (the HTTP status is 200 instead of 202).
type JobSubmitResponse struct {
	Job     WireJob `json:"job"`
	Deduped bool    `json:"deduped,omitempty"`
}

// JobListResponse is the body of GET /v1/jobs: jobs in submission order.
// NextCursor, when nonzero, is the cursor query parameter of the next page.
type JobListResponse struct {
	Jobs       []WireJob `json:"jobs"`
	NextCursor uint64    `json:"next_cursor,omitempty"`
}

// Error codes of the jobs API (see the main catalogue in wire.go).
const (
	// CodeJobsDisabled: the server runs without a data directory, so the
	// durable jobs API is not available (501). Start with -data-dir.
	CodeJobsDisabled = "jobs_disabled"
	// CodeJobTerminal: the operation needs a live job but the job already
	// reached a terminal state (409) — e.g. canceling a finished job.
	CodeJobTerminal = "job_terminal"
)
