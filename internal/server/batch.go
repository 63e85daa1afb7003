package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// batcher micro-batches /v1/ratio work: concurrent requests for the same
// key (canonical instance + agent + grid) join one shared computation
// instead of redundantly driving the same optimizer over the same shared
// solver. The first arrival opens a batch and, when window > 0, holds it
// open for the window before starting, so near-simultaneous requests
// coalesce even when they do not overlap the (short, warm) computation.
//
// The computation runs in its own goroutine under a context that is
// canceled only when every participant has abandoned the batch — one
// impatient client cannot kill the answer for the others, while a batch
// nobody is waiting for stops mid-Dinkelbach instead of burning the pool.
type batcher struct {
	window time.Duration

	mu    sync.Mutex
	calls map[string]*batchCall

	runs, joins atomic.Int64

	// onPanic, when set, is called once per panic contained inside a batch
	// computation (the server wires it to panics_total). The panic itself is
	// delivered to every participant as a *par.PanicError.
	onPanic func()
}

// batchCall is one in-flight shared computation.
type batchCall struct {
	done   chan struct{} // closed when val/err are set
	val    any
	err    error
	refs   int // participants still waiting
	cancel context.CancelFunc
}

func newBatcher(window time.Duration) *batcher {
	return &batcher{window: window, calls: make(map[string]*batchCall)}
}

// do returns the shared result for key, starting the computation if this
// caller opens the batch. compute receives the batch's own context —
// produced by newBase (typically carrying the server-side timeout) and
// owned by the batch — NOT the caller's request context: the caller's ctx
// only governs how long this caller waits. joined reports whether the
// caller rode an existing batch.
func (b *batcher) do(ctx context.Context, key string, newBase func() (context.Context, context.CancelFunc), compute func(context.Context) (any, error)) (val any, joined bool, err error) {
	b.mu.Lock()
	call, ok := b.calls[key]
	if ok {
		call.refs++
		b.mu.Unlock()
		b.joins.Add(1)
		return b.wait(ctx, key, call, true)
	}
	runCtx, cancel := newBase()
	call = &batchCall{done: make(chan struct{}), refs: 1, cancel: cancel}
	b.calls[key] = call
	b.mu.Unlock()
	b.runs.Add(1)
	go b.run(key, call, runCtx, compute)
	return b.wait(ctx, key, call, false)
}

// run executes one batch: optional collection window, then the computation.
func (b *batcher) run(key string, call *batchCall, runCtx context.Context, compute func(context.Context) (any, error)) {
	defer call.cancel()
	if b.window > 0 {
		t := time.NewTimer(b.window)
		select {
		case <-t.C:
		case <-runCtx.Done():
			t.Stop()
		}
	}
	var (
		val any
		err error
	)
	if err = runCtx.Err(); err == nil {
		// The computation runs on this detached goroutine: an unrecovered
		// panic here would kill the process AND leave every participant
		// blocked on call.done forever. Protect converts it into an error
		// that flows through the normal completion path below.
		err = par.Protect(func() error {
			var cerr error
			val, cerr = compute(runCtx)
			return cerr
		})
		var pe *par.PanicError
		if errors.As(err, &pe) && b.onPanic != nil {
			b.onPanic()
		}
	}
	b.mu.Lock()
	call.val, call.err = val, err
	close(call.done)
	// The batch is complete. A later arrival for the same key reads its
	// answer from the cache entry's ratio memo; it opens a new batch only
	// when this one failed or the entry has been evicted.
	if b.calls[key] == call {
		delete(b.calls, key)
	}
	b.mu.Unlock()
}

// wait blocks until the batch completes or the caller gives up. A departing
// caller decrements the refcount and cancels the computation when it was
// the last one waiting.
func (b *batcher) wait(ctx context.Context, key string, call *batchCall, joined bool) (any, bool, error) {
	select {
	case <-call.done:
		return call.val, joined, call.err
	case <-ctx.Done():
	}
	b.mu.Lock()
	select {
	case <-call.done:
		// Completion raced the caller's cancellation; prefer the answer.
		b.mu.Unlock()
		return call.val, joined, call.err
	default:
	}
	call.refs--
	abandon := call.refs == 0
	if abandon && b.calls[key] == call {
		delete(b.calls, key)
	}
	b.mu.Unlock()
	if abandon {
		call.cancel()
	}
	return nil, joined, ctx.Err()
}
