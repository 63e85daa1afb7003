package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
)

// CheckpointFunc persists a contiguous run of partial results starting at
// work-unit index start. Runners call it after each completed unit; the
// scheduler routes it to Store.AppendPoints.
type CheckpointFunc func(start int, pts []Point) error

// Runner executes one job: rec is a private clone carrying the spec and any
// checkpointed prefix (resume from rec.NextIndex), ckpt persists progress,
// and the returned bytes become the job's final Result. A context error
// means the job was canceled or the scheduler is shutting down — the
// scheduler requeues or cancels accordingly; any other error fails the job.
type Runner func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error)

// Sentinel errors the API layer maps to its error catalogue.
var (
	// ErrNotFound: the job ID is not in the store.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrTerminal: the operation needs a live job but the job already
	// reached a terminal state.
	ErrTerminal = errors.New("jobs: job already terminal")
)

// SchedulerConfig wires a Scheduler. Store, Pool and Run are required.
type SchedulerConfig struct {
	Store *Store
	// Pool is the worker pool jobs share with the rest of the process (the
	// server passes its request pool, so background jobs and interactive
	// requests compete for the same bounded capacity).
	Pool *par.Limiter
	Run  Runner
	// Base is the root context of every job execution: canceled by Close,
	// and the carrier of the chaos injector when one is armed. nil means
	// context.Background().
	Base context.Context
	// Logger receives job lifecycle logs (default slog.Default()).
	Logger *slog.Logger
}

// Scheduler drains the job queue into the worker pool: higher Priority
// first, FIFO within a priority. One Scheduler owns all transitions of its
// store's jobs; readers go through the store directly.
type Scheduler struct {
	store *Store
	pool  *par.Limiter
	run   Runner
	log   *slog.Logger

	base context.Context
	stop context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobQueue
	running map[string]context.CancelFunc
	closed  bool
	started bool

	transitions map[State]int64
	age         *obs.Histogram // queued-to-terminal seconds, over ageBuckets
	deduped     int64
	recovered   int64

	wg sync.WaitGroup
}

// NewScheduler builds a Scheduler. Call Recover (optionally) and then Start.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Store == nil || cfg.Pool == nil || cfg.Run == nil {
		return nil, fmt.Errorf("jobs: scheduler needs Store, Pool and Run")
	}
	if cfg.Base == nil {
		cfg.Base = context.Background()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	base, stop := context.WithCancel(cfg.Base)
	s := &Scheduler{
		store:       cfg.Store,
		pool:        cfg.Pool,
		run:         cfg.Run,
		log:         cfg.Logger,
		base:        base,
		stop:        stop,
		running:     make(map[string]context.CancelFunc),
		transitions: make(map[State]int64),
		age:         obs.NewHistogram(ageBuckets),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Recover requeues every non-terminal job left in the store by a previous
// process: queued jobs as they are, running jobs demoted back to queued
// (their checkpointed prefix intact, so they resume where the crash cut
// them off). A job whose cancel was acknowledged before the crash ends
// canceled instead, uncounted in the returned number. Each considered job
// is a jobs.recover fault-injection site; an injected or real error aborts
// recovery so a broken store fails the boot loudly instead of silently
// dropping work.
func (s *Scheduler) Recover(ctx context.Context) (int, error) {
	n := 0
	for _, rec := range s.store.Pending() {
		if err := fault.Hit(ctx, fault.SiteJobsRecover); err != nil {
			return n, fmt.Errorf("jobs: recover %s: %w", rec.ID, err)
		}
		if rec.CancelRequested {
			if err := s.finish(ctx, rec.ID, StateCanceled, nil, ""); err != nil {
				return n, fmt.Errorf("jobs: recover %s: %w", rec.ID, err)
			}
			continue
		}
		if rec.State == StateRunning {
			var err error
			rec, err = s.store.Update(ctx, rec.ID, func(r *Record) error {
				r.State = StateQueued
				r.StartedUnixNano = 0
				return nil
			})
			if err != nil {
				return n, fmt.Errorf("jobs: recover %s: %w", rec.ID, err)
			}
		}
		s.enqueue(rec)
		n++
		s.mu.Lock()
		s.recovered++
		s.mu.Unlock()
		s.log.Info("job recovered", "job", rec.ID, "next_index", rec.NextIndex)
	}
	return n, nil
}

// Start launches the dispatcher. Idempotent.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.wg.Add(1)
	go s.dispatch()
}

// Close stops dispatching, cancels running jobs (they transition back to
// queued, checkpoints intact, ready for the next boot's Recover) and waits
// for all workers to finish their final store writes. The store itself
// stays open; the caller closes it after Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// Submit persists and (when new or restarted) enqueues a job. The enqueued
// flag is false when the submission deduped to an existing queued, running,
// or done job — content-addressing makes submission idempotent.
func (s *Scheduler) Submit(ctx context.Context, sub Submission) (*Record, bool, error) {
	rec, enqueue, err := s.store.Submit(ctx, sub)
	if err != nil {
		return nil, false, err
	}
	if enqueue {
		s.countTransition(StateQueued)
		s.enqueue(rec)
	} else {
		s.mu.Lock()
		s.deduped++
		s.mu.Unlock()
	}
	return rec, enqueue, nil
}

// Cancel requests cancellation: a queued job transitions to canceled
// immediately; a running job gets its context canceled and transitions once
// the worker unwinds. Returns the record as of the request, ErrNotFound for
// an unknown ID, or ErrTerminal when the job is already finished.
func (s *Scheduler) Cancel(ctx context.Context, id string) (*Record, error) {
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	if rec.State.Terminal() {
		return rec, ErrTerminal
	}
	// A queued job's cancellation is counted before anyone can read it,
	// as in finish.
	s.mu.Lock()
	rec, err := s.store.Update(ctx, id, func(r *Record) error {
		if r.State.Terminal() {
			return ErrTerminal
		}
		r.CancelRequested = true
		if r.State == StateQueued {
			r.State = StateCanceled
			r.FinishedUnixNano = time.Now().UnixNano()
		}
		return nil
	})
	if err == nil && rec.State == StateCanceled {
		s.observeTerminalLocked(rec)
	}
	cancel := s.running[id]
	s.mu.Unlock()
	if err != nil {
		return rec, err
	}
	if cancel != nil {
		cancel()
	}
	return rec, nil
}

// enqueue pushes a job reference onto the priority queue.
func (s *Scheduler) enqueue(rec *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	heap.Push(&s.queue, queueItem{id: rec.ID, priority: rec.Priority, seq: rec.Seq})
	s.cond.Signal()
}

// waitItem blocks until the queue is non-empty (without popping) or the
// scheduler closes.
func (s *Scheduler) waitItem() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	return !s.closed
}

func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		// Wait for work BEFORE taking a pool slot — an idle scheduler must
		// not starve the request pool it shares with inline endpoints — but
		// pop only AFTER the slot is acquired: items submitted while all
		// workers are busy stay in the heap, so a higher-priority job that
		// arrives during the wait is still the one dispatched next. Dispatch
		// is the only popper, so the queue cannot drain in between.
		if !s.waitItem() {
			return
		}
		if err := s.pool.Acquire(s.base); err != nil {
			return // closing; queued jobs stay in the store
		}
		s.mu.Lock()
		if s.closed || len(s.queue) == 0 {
			s.mu.Unlock()
			s.pool.Release()
			return
		}
		item := heap.Pop(&s.queue).(queueItem)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.work(item.id)
	}
}

// work executes one job end to end: queued → running → terminal (or back
// to queued on shutdown). The runner is wrapped in a panic barrier, so one
// poisoned job fails cleanly instead of taking the process down.
func (s *Scheduler) work(id string) {
	defer s.wg.Done()
	defer s.pool.Release()
	rec, ok := s.store.Get(id)
	if !ok || rec.State != StateQueued {
		return // canceled (or superseded) while queued
	}
	rec, err := s.store.Update(s.base, id, func(r *Record) error {
		if r.State != StateQueued {
			return ErrTerminal
		}
		r.State = StateRunning
		r.StartedUnixNano = time.Now().UnixNano()
		return nil
	})
	if err != nil {
		s.log.Error("job start failed", "job", id, "err", err)
		return
	}
	s.countTransition(StateRunning)

	jctx, cancel := context.WithCancel(s.base)
	s.mu.Lock()
	s.running[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
		cancel()
	}()

	ckpt := func(start int, pts []Point) error {
		return s.store.AppendPoints(jctx, id, start, pts)
	}
	var result []byte
	err = par.Protect(func() error {
		var rerr error
		result, rerr = s.run(jctx, rec, ckpt)
		return rerr
	})

	switch {
	case err == nil:
		s.finish(s.base, id, StateDone, result, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		latest, _ := s.store.Get(id)
		if latest != nil && latest.CancelRequested {
			s.finish(s.base, id, StateCanceled, nil, "")
		} else {
			// Shutdown requeue: back to queued with the checkpointed prefix
			// intact; the next boot's Recover picks it up.
			if _, uerr := s.store.Update(s.base, id, func(r *Record) error {
				r.State = StateQueued
				r.StartedUnixNano = 0
				return nil
			}); uerr != nil {
				s.log.Error("job requeue failed", "job", id, "err", uerr)
			} else {
				s.countTransition(StateQueued)
			}
		}
	default:
		s.finish(s.base, id, StateFailed, nil, err.Error())
	}
}

// finish applies a terminal transition and records its metrics. A job
// whose cancel was acknowledged (CancelRequested) ends canceled with no
// result, whatever its run returned: the store serializes the transition
// after Cancel's update, so a cancel Cancel answered without error is
// final. The store update and the count happen under s.mu, so a Stats call
// that follows any read of the terminal record finds the job counted and
// no longer running, and a failed update counts nothing.
func (s *Scheduler) finish(ctx context.Context, id string, state State, result []byte, errMsg string) error {
	s.mu.Lock()
	rec, err := s.store.Update(ctx, id, func(r *Record) error {
		if r.CancelRequested {
			state, result, errMsg = StateCanceled, nil, ""
		}
		r.State, r.Result, r.Error = state, result, errMsg
		r.FinishedUnixNano = time.Now().UnixNano()
		return nil
	})
	if err == nil {
		delete(s.running, id)
		s.observeTerminalLocked(rec)
	}
	s.mu.Unlock()
	if err != nil {
		s.log.Error("job finish failed", "job", id, "err", err)
		return err
	}
	s.log.Info("job finished", "job", id, "state", string(rec.State), "age", rec.Age(time.Now()))
	return nil
}

// countTransition bumps the per-state transition counter.
func (s *Scheduler) countTransition(to State) {
	s.mu.Lock()
	s.transitions[to]++
	s.mu.Unlock()
}

// ageBuckets are the job age histogram bounds, in seconds.
var ageBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600, 3600}

// observeTerminalLocked folds a finished job into the transition counters
// and the queued-to-finished age histogram; the caller holds s.mu.
func (s *Scheduler) observeTerminalLocked(rec *Record) {
	s.transitions[rec.State]++
	s.age.Observe(rec.Age(time.Now()).Seconds())
}

// SchedulerStats is a point-in-time snapshot of scheduler counters.
type SchedulerStats struct {
	QueueDepth  int             // items waiting for a worker slot
	Running     int             // jobs currently executing
	Transitions map[State]int64 // entries into each state since boot
	Deduped     int64           // submissions answered by an existing job
	Recovered   int64           // jobs requeued by Recover at boot
	Age         obs.Histogram   // queued-to-terminal age of terminal jobs, seconds
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := make(map[State]int64, len(s.transitions))
	for k, v := range s.transitions {
		tr[k] = v
	}
	return SchedulerStats{
		QueueDepth:  len(s.queue),
		Running:     len(s.running),
		Transitions: tr,
		Deduped:     s.deduped,
		Recovered:   s.recovered,
		Age:         s.age.Snapshot(),
	}
}

// queueItem orders the dispatch queue: higher priority first, then FIFO by
// submission sequence.
type queueItem struct {
	id       string
	priority int
	seq      uint64
}

type jobQueue []queueItem

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(queueItem)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
