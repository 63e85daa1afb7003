package jobs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/par"
)

func newSched(t *testing.T, st *Store, pool int, run Runner) *Scheduler {
	t.Helper()
	s, err := NewScheduler(SchedulerConfig{Store: st, Pool: par.NewLimiter(pool), Run: run})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, st *Store, id string, want State) *Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := st.Get(id); ok && rec.State == want {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec, _ := st.Get(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, rec)
	return nil
}

func TestSchedulerRunsJob(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		if err := ckpt(0, []Point{{W1: "0", U: "1"}}); err != nil {
			return nil, err
		}
		return []byte(`{"answer":` + string(rec.Spec) + `}`), nil
	}
	s := newSched(t, st, 2, run)
	s.Start()
	rec, enqueued, err := s.Submit(context.Background(), Submission{Key: "a", Kind: "sweep", Spec: []byte(`42`)})
	if err != nil || !enqueued {
		t.Fatalf("submit: %v %v", enqueued, err)
	}
	done := waitState(t, st, rec.ID, StateDone)
	if string(done.Result) != `{"answer":42}` {
		t.Fatalf("result %q", done.Result)
	}
	if done.NextIndex != 1 || len(done.Points) != 1 {
		t.Fatalf("checkpoint not persisted: %+v", done)
	}
	// The scheduler counts the terminal transition after the store update
	// that waitState observes, so poll until the stats catch up.
	stats := s.Stats()
	for deadline := time.Now().Add(10 * time.Second); stats.Transitions[StateDone] == 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		stats = s.Stats()
	}
	if stats.Transitions[StateDone] != 1 || stats.Age.Count != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	release := make(chan struct{})
	var mu sync.Mutex
	var ran []string
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		if rec.Key == "gate" {
			<-release
			return []byte(`{}`), nil
		}
		mu.Lock()
		ran = append(ran, rec.Key)
		mu.Unlock()
		return []byte(`{}`), nil
	}
	s := newSched(t, st, 1, run)
	s.Start()
	ctx := context.Background()
	gate, _, err := s.Submit(ctx, Submission{Key: "gate", Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, gate.ID, StateRunning)
	// With the only worker busy, queue low before high: high must still win.
	low, _, _ := s.Submit(ctx, Submission{Key: "low", Kind: "t", Priority: 1})
	hi, _, _ := s.Submit(ctx, Submission{Key: "high", Kind: "t", Priority: 9})
	close(release)
	waitState(t, st, low.ID, StateDone)
	waitState(t, st, hi.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 2 || ran[0] != "high" || ran[1] != "low" {
		t.Fatalf("execution order %v, want [high low]", ran)
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	release := make(chan struct{})
	defer close(release)
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		if rec.Key == "gate" {
			<-release
		}
		return []byte(`{}`), nil
	}
	s := newSched(t, st, 1, run)
	s.Start()
	ctx := context.Background()
	gate, _, _ := s.Submit(ctx, Submission{Key: "gate", Kind: "t"})
	waitState(t, st, gate.ID, StateRunning)
	victim, _, _ := s.Submit(ctx, Submission{Key: "victim", Kind: "t"})
	rec, err := s.Cancel(ctx, victim.ID)
	if err != nil || rec.State != StateCanceled {
		t.Fatalf("cancel queued: state=%s err=%v", rec.State, err)
	}
	if _, err := s.Cancel(ctx, victim.ID); err != ErrTerminal {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
	if _, err := s.Cancel(ctx, "jdeadbeefdeadbeef"); err != ErrNotFound {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	started := make(chan struct{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := newSched(t, st, 1, run)
	s.Start()
	ctx := context.Background()
	rec, _, err := s.Submit(ctx, Submission{Key: "victim", Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(ctx, rec.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, st, rec.ID, StateCanceled)
	if !got.CancelRequested {
		t.Fatalf("CancelRequested not persisted: %+v", got)
	}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, st *Store, id string) *Record {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if rec, ok := st.Get(id); ok && rec.State.Terminal() {
			return rec
		}
	}
	rec, _ := st.Get(id)
	t.Fatalf("job %s never finished (last: %+v)", id, rec)
	return nil
}

// TestSchedulerCancelBeatsLateSuccess acknowledges a cancel while the run
// is still going and lets the run succeed only after Cancel has returned:
// the job must end canceled, with no result, and be counted so.
func TestSchedulerCancelBeatsLateSuccess(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	started, acked := make(chan struct{}), make(chan struct{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		close(started)
		<-acked
		return []byte(`{"late":true}`), nil
	}
	s := newSched(t, st, 1, run)
	s.Start()
	ctx := context.Background()
	rec, _, err := s.Submit(ctx, Submission{Key: "late", Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(ctx, rec.ID); err != nil {
		t.Fatal(err)
	}
	close(acked)
	if got := waitTerminal(t, st, rec.ID); got.State != StateCanceled || got.Result != nil {
		t.Fatalf("acknowledged cancel ended %s with result %q", got.State, got.Result)
	}
	stats := s.Stats()
	for deadline := time.Now().Add(10 * time.Second); stats.Transitions[StateCanceled] == 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		stats = s.Stats()
	}
	if stats.Transitions[StateCanceled] != 1 || stats.Transitions[StateDone] != 0 {
		t.Fatalf("transitions %+v, want one canceled and none done", stats.Transitions)
	}
}

// TestSchedulerRecoverFinishesAcknowledgedCancel reopens a store holding
// jobs whose cancel was acknowledged before a crash — one running, one
// already requeued — and requires Recover to finish both canceled instead
// of requeueing them.
func TestSchedulerRecoverFinishesAcknowledgedCancel(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{})
	var ids []string
	for _, state := range []State{StateRunning, StateQueued} {
		rec, _, err := st.Submit(ctx, Submission{Key: string(state), Kind: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Update(ctx, rec.ID, func(r *Record) error {
			r.State, r.CancelRequested = state, true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, StoreConfig{})
	s := newSched(t, st2, 1, func(context.Context, *Record, CheckpointFunc) ([]byte, error) {
		t.Error("a job whose cancel was acknowledged ran again")
		return []byte(`{}`), nil
	})
	n, err := s.Recover(ctx)
	if err != nil || n != 0 {
		t.Fatalf("Recover: n=%d err=%v, want nothing requeued", n, err)
	}
	for _, id := range ids {
		if got, _ := st2.Get(id); got.State != StateCanceled || got.Result != nil {
			t.Fatalf("recovered job %s is %s", id, got.State)
		}
	}
	if stats := s.Stats(); stats.QueueDepth != 0 || stats.Recovered != 0 || stats.Transitions[StateCanceled] != 2 {
		t.Fatalf("stats after Recover: %+v", stats)
	}
}

func TestSchedulerShutdownRequeuesAndResumes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{})
	checkpointed := make(chan struct{})
	// First incarnation: checkpoint two units, then hang until shutdown.
	run1 := func(jctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		if err := ckpt(rec.NextIndex, []Point{{W1: "0", U: "1"}, {W1: "1/4", U: "2"}}); err != nil {
			return nil, err
		}
		close(checkpointed)
		<-jctx.Done()
		return nil, jctx.Err()
	}
	s1 := newSched(t, st, 1, run1)
	s1.Start()
	rec, _, err := s1.Submit(ctx, Submission{Key: "resume-me", Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	<-checkpointed
	s1.Close()
	requeued := waitState(t, st, rec.ID, StateQueued)
	if requeued.NextIndex != 2 {
		t.Fatalf("checkpoint lost on shutdown requeue: %+v", requeued)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same directory: Recover must requeue it
	// and the runner must see the checkpointed prefix.
	st2 := openStore(t, dir, StoreConfig{})
	var resumeFrom int
	var once sync.Once
	run2 := func(jctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		once.Do(func() { resumeFrom = rec.NextIndex })
		if err := ckpt(rec.NextIndex, []Point{{W1: "1/2", U: "3"}}); err != nil {
			return nil, err
		}
		return []byte(`{"resumed":true}`), nil
	}
	s2, err := NewScheduler(SchedulerConfig{Store: st2, Pool: par.NewLimiter(1), Run: run2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	n, err := s2.Recover(ctx)
	if err != nil || n != 1 {
		t.Fatalf("Recover: n=%d err=%v", n, err)
	}
	s2.Start()
	done := waitState(t, st2, rec.ID, StateDone)
	if resumeFrom != 2 {
		t.Fatalf("runner resumed from %d, want 2", resumeFrom)
	}
	if done.NextIndex != 3 || len(done.Points) != 3 {
		t.Fatalf("final checkpoint: %+v", done)
	}
	if s2.Stats().Recovered != 1 {
		t.Fatalf("recovered counter: %+v", s2.Stats())
	}
}

func TestSchedulerRecoverFaultAbortsBoot(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, StoreConfig{})
	submitN(t, st, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, StoreConfig{})
	s, err := NewScheduler(SchedulerConfig{
		Store: st2,
		Pool:  par.NewLimiter(1),
		Run:   func(context.Context, *Record, CheckpointFunc) ([]byte, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteJobsRecover, Kind: fault.KindError, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Recover(fault.ContextWith(context.Background(), inj))
	if err == nil {
		t.Fatal("injected recover fault did not abort")
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs before the fault, want 1", n)
	}
}

func TestSchedulerPanicContainment(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		panic("poisoned job")
	}
	s := newSched(t, st, 1, run)
	s.Start()
	rec, _, err := s.Submit(context.Background(), Submission{Key: "boom", Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, st, rec.ID, StateFailed)
	if !strings.Contains(failed.Error, "poisoned job") {
		t.Fatalf("panic not captured in Error: %q", failed.Error)
	}
}

func TestSchedulerDedupe(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	block := make(chan struct{})
	defer close(block)
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		<-block
		return []byte(`{}`), nil
	}
	s := newSched(t, st, 1, run)
	s.Start()
	ctx := context.Background()
	a, _, err := s.Submit(ctx, Submission{Key: "same", Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	b, enqueued, err := s.Submit(ctx, Submission{Key: "same", Kind: "t"})
	if err != nil || enqueued {
		t.Fatalf("duplicate enqueued: %v %v", enqueued, err)
	}
	if a.ID != b.ID {
		t.Fatalf("IDs differ: %s vs %s", a.ID, b.ID)
	}
	if s.Stats().Deduped != 1 {
		t.Fatalf("deduped counter: %+v", s.Stats())
	}
}

func TestSchedulerManyJobs(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"k":%q}`, rec.Key)), nil
	}
	s := newSched(t, st, 4, run)
	s.Start()
	ctx := context.Background()
	var ids []string
	for i := 0; i < 40; i++ {
		rec, _, err := s.Submit(ctx, Submission{Key: fmt.Sprintf("k%d", i), Kind: "t", Priority: i % 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		waitState(t, st, id, StateDone)
	}
	// As in TestSchedulerRunsJob, the stats trail the store update that
	// waitState observes, so poll until they catch up.
	got := s.Stats().Transitions[StateDone]
	for deadline := time.Now().Add(10 * time.Second); got < 40 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		got = s.Stats().Transitions[StateDone]
	}
	if got != 40 {
		t.Fatalf("done transitions %d, want 40", got)
	}
}

// TestSchedulerCountsTerminalBeforeReaders reads each job's terminal record
// as soon as the store publishes it and requires the scheduler's counters
// taken right after to hold it already: the job counted once as done, in
// the age histogram and off the running set.
func TestSchedulerCountsTerminalBeforeReaders(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		return []byte(`1`), nil
	}
	s := newSched(t, st, 2, run)
	s.Start()
	for i := 1; i <= 40; i++ {
		rec, _, err := s.Submit(context.Background(), Submission{Key: fmt.Sprint("k", i), Kind: "sweep", Spec: []byte(`1`)})
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			if got, _ := st.Get(rec.ID); got.State == StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", i)
			}
		}
		stats := s.Stats()
		if stats.Transitions[StateDone] != int64(i) || stats.Age.Count != int64(i) || stats.Running != 0 {
			t.Fatalf("job %d read as done, yet the scheduler counts %d done, %d aged, %d running",
				i, stats.Transitions[StateDone], stats.Age.Count, stats.Running)
		}
	}
}

// TestSchedulerFailedFinishCountsNothing fails the store update of a job's
// terminal transition (the second WAL append through the scheduler's base
// context, after the start transition) and requires the scheduler to count
// no terminal state for it.
func TestSchedulerFailedFinishCountsNothing(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteJobsWAL, Kind: fault.KindError, Every: 2, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		defer close(ran)
		return []byte(`1`), nil
	}
	s, err := NewScheduler(SchedulerConfig{Store: st, Pool: par.NewLimiter(1), Run: run, Base: fault.ContextWith(context.Background(), inj)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	rec, _, err := s.Submit(context.Background(), Submission{Key: "k", Kind: "sweep", Spec: []byte(`1`)})
	if err != nil {
		t.Fatal(err)
	}
	<-ran
	s.Close() // waits for the worker's finish attempt
	if got, _ := st.Get(rec.ID); got.State != StateRunning {
		t.Fatalf("job state %s after a failed finish, want it still running in the store", got.State)
	}
	stats := s.Stats()
	for state, n := range stats.Transitions {
		if state.Terminal() && n != 0 {
			t.Fatalf("failed finish counted %d %s transitions: %+v", n, state, stats.Transitions)
		}
	}
	if stats.Age.Count != 0 || stats.Running != 0 {
		t.Fatalf("failed finish: %d aged, %d running", stats.Age.Count, stats.Running)
	}
}
