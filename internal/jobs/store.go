package jobs

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// StoreConfig tunes the durable store. Zero values select the defaults.
type StoreConfig struct {
	// CompactBytes triggers snapshot compaction when the WAL grows past
	// this size (default 4 MiB; negative disables automatic compaction).
	CompactBytes int64
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.CompactBytes == 0 {
		c.CompactBytes = 4 << 20
	}
	return c
}

// Store is the crash-safe job store: an in-memory map of records backed by
// a CRC-checked write-ahead log plus a periodically compacted snapshot.
// All methods are safe for concurrent use.
type Store struct {
	dir string
	cfg StoreConfig

	mu       sync.Mutex
	wal      *os.File
	walBytes int64
	jobs     map[string]*Record // by ID; live canonical copies
	order    []*Record          // by Seq ascending (List pagination)
	nextSeq  uint64
	closed   bool

	appends, syncs, compactions atomic.Int64
	// recovery facts, fixed at Open
	recovered int  // records live after replay
	replayed  int  // WAL entries applied
	tornTail  bool // a damaged WAL tail was discarded
	resumable int  // queued/running records found at Open
}

// Open loads (or initializes) the store in dir: snapshot first, then WAL
// replay. A torn WAL tail — the signature of a crash mid-write — is
// truncated away; everything before it is applied. The recovered state is
// exactly the fsync'd history plus whatever checkpoint deltas survived.
func Open(dir string, cfg StoreConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create data dir: %w", err)
	}
	snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:     dir,
		cfg:     cfg,
		jobs:    make(map[string]*Record),
		nextSeq: snap.Seq + 1,
	}
	for _, rec := range snap.Jobs {
		if !rec.State.valid() {
			return nil, fmt.Errorf("jobs: snapshot record %s has unknown state %q", rec.ID, rec.State)
		}
		st.jobs[rec.ID] = rec
		if rec.Seq >= st.nextSeq {
			st.nextSeq = rec.Seq + 1
		}
	}

	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open wal: %w", err)
	}
	valid, torn, err := readFrames(f, func(e *walEntry) error {
		st.replayed++
		return st.applyLocked(e)
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	st.tornTail = torn
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobs: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: seek wal: %w", err)
	}
	st.wal = f
	st.walBytes = valid

	// Fix up the invariant NextIndex == len(Points): an un-synced
	// checkpoint suffix may have been lost while a later (synced) record
	// claimed more progress. Resuming earlier is always safe — points are
	// independent and exact. The cut is capped, so the next append
	// reallocates instead of overwriting the dropped tail in place.
	for _, rec := range st.jobs {
		if rec.NextIndex > len(rec.Points) {
			rec.NextIndex = len(rec.Points)
		} else if rec.NextIndex < len(rec.Points) {
			rec.Points = rec.Points[:rec.NextIndex:rec.NextIndex]
		}
		st.order = append(st.order, rec)
		if !rec.State.Terminal() {
			st.resumable++
		}
	}
	sort.Slice(st.order, func(i, j int) bool { return st.order[i].Seq < st.order[j].Seq })
	st.recovered = len(st.jobs)
	return st, nil
}

// applyLocked replays one WAL entry into the in-memory state. Replay is
// convergent: re-applying a stale log over a newer snapshot (the crash
// window between snapshot publish and WAL truncation) ends in the same
// state, because the log holds the complete history since the previous
// compaction.
func (st *Store) applyLocked(e *walEntry) error {
	switch e.Op {
	case "job":
		if e.Job == nil {
			return fmt.Errorf("jobs: wal job entry without record")
		}
		rec := e.Job
		if !rec.State.valid() {
			return fmt.Errorf("jobs: wal record %s has unknown state %q", rec.ID, rec.State)
		}
		if prev, ok := st.jobs[rec.ID]; ok {
			// Carry resident points, truncated to the record's checkpoint
			// cursor (a resubmission resets it to zero, dropping them all)
			// and capped like Open's fix-up.
			n := rec.NextIndex
			if n > len(prev.Points) {
				n = len(prev.Points)
			}
			rec.Points = prev.Points[:n:n]
		}
		st.jobs[rec.ID] = rec
		if rec.Seq >= st.nextSeq {
			st.nextSeq = rec.Seq + 1
		}
	case "points":
		rec, ok := st.jobs[e.ID]
		if !ok {
			// Points for an unknown job: the job record was in an un-synced
			// region that a later compaction dropped. Nothing to resume.
			return nil
		}
		have := len(rec.Points)
		start, pts := e.Start, e.Points
		if start > have {
			// A gap means the intervening deltas were lost; skip — the
			// fix-up in Open resumes from the contiguous prefix.
			return nil
		}
		if start+len(pts) <= have {
			return nil // fully replayed already (stale-log replay)
		}
		rec.Points = append(rec.Points, pts[have-start:]...)
		if rec.NextIndex < len(rec.Points) {
			rec.NextIndex = len(rec.Points)
		}
	default:
		return fmt.Errorf("jobs: unknown wal op %q", e.Op)
	}
	return nil
}

// Close syncs and closes the WAL. The store is unusable afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if err := st.wal.Sync(); err != nil {
		st.wal.Close()
		return fmt.Errorf("jobs: sync wal on close: %w", err)
	}
	return st.wal.Close()
}

// appendLocked writes one WAL frame, optionally fsync'ing it (state
// transitions sync; checkpoint deltas do not — any later sync makes them
// durable wholesale, since fsync covers the whole file). The append is the
// jobs.wal.append fault-injection site.
func (st *Store) appendLocked(ctx context.Context, e *walEntry, sync bool) error {
	if st.closed {
		return fmt.Errorf("jobs: store is closed")
	}
	if err := fault.Hit(ctx, fault.SiteJobsWAL); err != nil {
		return err
	}
	frame, err := encodeFrame(e)
	if err != nil {
		return err
	}
	if _, err := st.wal.Write(frame); err != nil {
		return fmt.Errorf("jobs: append wal: %w", err)
	}
	st.walBytes += int64(len(frame))
	st.appends.Add(1)
	if sync {
		if err := st.wal.Sync(); err != nil {
			return fmt.Errorf("jobs: sync wal: %w", err)
		}
		st.syncs.Add(1)
	}
	return nil
}

// maybeCompactLocked compacts when the WAL has outgrown the configured
// threshold. Callers invoke it only AFTER publishing their mutation to the
// in-memory state: the snapshot is cut from memory, so compacting from
// inside the append (before the publish) would truncate the just-written
// frame without capturing its effect.
func (st *Store) maybeCompactLocked() error {
	if st.cfg.CompactBytes > 0 && st.walBytes > st.cfg.CompactBytes {
		return st.compactLocked()
	}
	return nil
}

// Submission is the input of Store.Submit.
type Submission struct {
	// Key is the canonical dedupe key; the job ID derives from it.
	Key string
	// Kind names the job type (e.g. "sweep").
	Kind string
	// Spec is the opaque specification persisted with the job.
	Spec []byte
	// Priority orders the scheduler queue (higher first).
	Priority int
	// Seed is a checkpointed prefix carried over from another process —
	// the cluster router re-places a job on a surviving node with the last
	// checkpoint it observed, so the new node resumes instead of restarting.
	// Applied only when the submission creates (or restarts) the job; a
	// dedupe to a live or done job keeps that job's own progress.
	Seed []Point
}

// Submit creates (or dedupes to) the job for sub.Key. The returned enqueue
// flag tells the scheduler whether the job needs queueing: true for a new
// job and for a failed/canceled job restarted as a fresh attempt; false
// when the submission deduped to a queued, running, or done job. The
// creating append is fsync'd before Submit returns — an acknowledged job
// survives any crash.
func (st *Store) Submit(ctx context.Context, sub Submission) (*Record, bool, error) {
	if sub.Key == "" {
		return nil, false, fmt.Errorf("jobs: submission without key")
	}
	id := IDForKey(sub.Key)
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now().UnixNano()
	if prev, ok := st.jobs[id]; ok {
		if !prev.State.Terminal() || prev.State == StateDone {
			return prev.clone(), false, nil
		}
		// Failed or canceled: restart as a fresh attempt of the same job.
		next := prev.clone()
		next.State = StateQueued
		next.Attempt++
		next.Error = ""
		next.Result = nil
		next.Points = nil
		next.NextIndex = 0
		next.StartedUnixNano = 0
		next.FinishedUnixNano = 0
		next.CancelRequested = false
		next.Priority = sub.Priority
		if err := st.submitLocked(ctx, next, sub.Seed); err != nil {
			return nil, false, err
		}
		st.replaceLocked(next)
		if err := st.maybeCompactLocked(); err != nil {
			return nil, false, err
		}
		return next.clone(), true, nil
	}
	rec := &Record{
		ID:              id,
		Key:             sub.Key,
		Kind:            sub.Kind,
		Spec:            sub.Spec,
		Priority:        sub.Priority,
		Seq:             st.nextSeq,
		Attempt:         1,
		State:           StateQueued,
		CreatedUnixNano: now,
	}
	if err := st.submitLocked(ctx, rec, sub.Seed); err != nil {
		return nil, false, err
	}
	st.nextSeq++
	st.jobs[id] = rec
	st.order = append(st.order, rec)
	if err := st.maybeCompactLocked(); err != nil {
		return nil, false, err
	}
	return rec.clone(), true, nil
}

// submitLocked persists a queued record, optionally seeded with a
// checkpointed prefix carried over from another process. The record and its
// seed delta land in the same fsync (the sync on the last frame covers the
// whole file), so an acknowledged seeded submission survives a crash with
// its prefix intact — replay applies the job record first, then the points
// delta, restoring NextIndex = len(Seed).
func (st *Store) submitLocked(ctx context.Context, rec *Record, seed []Point) error {
	if len(seed) > 0 {
		rec.Points = make([]Point, len(seed))
		copy(rec.Points, seed)
		rec.NextIndex = len(seed)
		if err := st.appendLocked(ctx, &walEntry{Op: "job", Job: rec.walForm()}, false); err != nil {
			return err
		}
		return st.appendLocked(ctx, &walEntry{Op: "points", ID: rec.ID, Start: 0, Points: rec.Points}, true)
	}
	return st.appendLocked(ctx, &walEntry{Op: "job", Job: rec.walForm()}, true)
}

// walForm returns the record as logged: everything but the points, which
// travel as their own delta entries.
func (r *Record) walForm() *Record {
	c := *r
	c.Points = nil
	return &c
}

// replaceLocked swaps the canonical copy of a record (same ID and Seq) in
// both indexes. order is sorted by Seq, so the slot is found by binary
// search.
func (st *Store) replaceLocked(rec *Record) {
	st.jobs[rec.ID] = rec
	i := sort.Search(len(st.order), func(i int) bool { return st.order[i].Seq >= rec.Seq })
	if i < len(st.order) && st.order[i].ID == rec.ID {
		st.order[i] = rec
		return
	}
	st.order = append(st.order, rec)
}

// Get returns a clone of the record, if present.
func (st *Store) Get(id string) (*Record, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.jobs[id]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

// Update applies mutate to a clone of the record, persists the result with
// an fsync'd WAL append, and publishes it. The mutator must not touch
// Points or NextIndex (checkpoints go through AppendPoints); state changes,
// results, errors and timestamps belong here. On append failure the store
// state is unchanged.
func (st *Store) Update(ctx context.Context, id string, mutate func(*Record) error) (*Record, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev, ok := st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: update of unknown job %s", id)
	}
	next := prev.clone()
	if err := mutate(next); err != nil {
		return nil, err
	}
	next.ID, next.Seq, next.Key = prev.ID, prev.Seq, prev.Key
	if !next.State.valid() {
		return nil, fmt.Errorf("jobs: update to unknown state %q", next.State)
	}
	if err := st.appendLocked(ctx, &walEntry{Op: "job", Job: next.walForm()}, true); err != nil {
		return nil, err
	}
	st.replaceLocked(next)
	if err := st.maybeCompactLocked(); err != nil {
		return nil, err
	}
	return next.clone(), nil
}

// AppendPoints checkpoints a contiguous run of partial results starting at
// work-unit index start (which must equal the job's NextIndex). The delta
// is appended without fsync — durability piggybacks on the next state
// transition, and a lost tail only costs recomputing those points. The
// points are then appended to the canonical record in place: clones handed
// out earlier hold capped views that end before them (see Record.clone),
// so a checkpoint costs O(len(pts)), not O(points so far).
func (st *Store) AppendPoints(ctx context.Context, id string, start int, pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: checkpoint for unknown job %s", id)
	}
	if start != rec.NextIndex {
		return fmt.Errorf("jobs: checkpoint start %d, want %d", start, rec.NextIndex)
	}
	if err := st.appendLocked(ctx, &walEntry{Op: "points", ID: id, Start: start, Points: pts}, false); err != nil {
		return err
	}
	rec.Points = append(rec.Points, pts...)
	rec.NextIndex += len(pts)
	return st.maybeCompactLocked()
}

// Pending returns clones of every non-terminal record, in submission order.
// The scheduler requeues these at startup.
func (st *Store) Pending() []*Record {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*Record
	for _, rec := range st.order {
		if !rec.State.Terminal() {
			out = append(out, rec.clone())
		}
	}
	return out
}

// ListOptions selects a List page.
type ListOptions struct {
	// AfterSeq resumes after this cursor (0 = from the beginning).
	AfterSeq uint64
	// Limit caps the page (default 50).
	Limit int
	// State, when non-empty, filters to that state.
	State State
	// Kind, when non-empty, filters to that job kind.
	Kind string
}

// List returns one page of records in submission order plus the cursor for
// the next page (0 when the listing is exhausted).
func (st *Store) List(opts ListOptions) ([]*Record, uint64) {
	if opts.Limit <= 0 {
		opts.Limit = 50
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	i := sort.Search(len(st.order), func(i int) bool { return st.order[i].Seq > opts.AfterSeq })
	var out []*Record
	for ; i < len(st.order); i++ {
		rec := st.order[i]
		if opts.State != "" && rec.State != opts.State {
			continue
		}
		if opts.Kind != "" && rec.Kind != opts.Kind {
			continue
		}
		if len(out) == opts.Limit {
			return out, out[len(out)-1].Seq
		}
		out = append(out, rec.clone())
	}
	return out, 0
}

// Compact writes a snapshot of the full store state and truncates the WAL.
// Normally automatic (see StoreConfig.CompactBytes); exposed for tests and
// operational tooling.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactLocked()
}

// compactLocked encodes the canonical records themselves: the lock is held
// until the snapshot is on disk, so nothing mutates them meanwhile.
func (st *Store) compactLocked() error {
	snap := &snapshot{Version: snapshotVersion, Seq: st.nextSeq - 1, Jobs: st.order}
	if err := writeSnapshot(st.dir, snap); err != nil {
		return err
	}
	if err := st.wal.Truncate(0); err != nil {
		return fmt.Errorf("jobs: truncate wal after compaction: %w", err)
	}
	if _, err := st.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("jobs: rewind wal after compaction: %w", err)
	}
	if err := st.wal.Sync(); err != nil {
		return fmt.Errorf("jobs: sync truncated wal: %w", err)
	}
	st.walBytes = 0
	st.compactions.Add(1)
	return nil
}

// StoreStats is a point-in-time snapshot of store counters.
type StoreStats struct {
	Jobs        int   // resident records
	WALBytes    int64 // bytes in the current WAL segment
	Appends     int64 // WAL frames written since Open
	Syncs       int64 // fsync'd appends since Open
	Compactions int64 // snapshot compactions since Open
	Recovered   int   // records live after Open's replay
	Replayed    int   // WAL entries applied at Open
	Resumable   int   // non-terminal records found at Open
	TornTail    bool  // Open discarded a damaged WAL tail
}

// Stats snapshots the store counters.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	jobs, walBytes := len(st.jobs), st.walBytes
	st.mu.Unlock()
	return StoreStats{
		Jobs:        jobs,
		WALBytes:    walBytes,
		Appends:     st.appends.Load(),
		Syncs:       st.syncs.Load(),
		Compactions: st.compactions.Load(),
		Recovered:   st.recovered,
		Replayed:    st.replayed,
		Resumable:   st.resumable,
		TornTail:    st.tornTail,
	}
}
