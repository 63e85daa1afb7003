package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mechanism"
)

// instanceCache is the size-bounded LRU keyed by CanonicalKey. An entry
// carries everything the service ever derives from one graph: the
// decomposition per engine, the BD allocation, one core.Instance per
// manipulative agent, and each finished /v1/ratio answer per (agent, grid)
// — so a repeated ratio is a lookup, and other requests reuse the
// accumulated SplitSolver state (interior transfers, warm hints, residual
// tails) and the per-instance (w1, w2) evaluation cache.
//
// Eviction is by entry (graph) count. A zero-capacity cache degenerates to
// a pass-through: every lookup misses and nothing is retained, which the
// differential tests use to prove answers do not depend on cache state.
type instanceCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	hits, misses, evictions atomic.Int64
}

// cacheEntry is the cached derived state of one canonical instance.
// Fields are computed lazily under the entry lock; every stored value is
// immutable once published (or internally synchronized, as core.Instance
// is), so concurrent requests can share freely.
type cacheEntry struct {
	key string
	g   *graph.Graph

	mu        sync.Mutex
	decs      map[bottleneck.Engine]*bottleneck.Decomposition
	alloc     *allocation.Allocation
	instances map[int]*core.Instance
	ratios    map[ratioKey]ratioBatchResult
}

// ratioKey names one /v1/ratio answer of an entry: agent and grid as the
// request spelled them. The entry key already scopes the mechanism.
type ratioKey struct{ v, grid int }

func newInstanceCache(capacity int) *instanceCache {
	return &instanceCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// entryFor returns the cached entry for key, creating (and, capacity
// permitting, retaining) it on miss; hit reports whether the entry was
// already resident. g is used only on miss; the hit path returns the
// resident entry so all requests for one instance converge on the same
// solver state regardless of how their graphs were spelled.
func (c *instanceCache) entryFor(key string, g *graph.Graph) (entry *cacheEntry, hit bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return &cacheEntry{key: key, g: g}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry), true
	}
	c.misses.Add(1)
	e := &cacheEntry{key: key, g: g}
	c.byKey[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	return e, false
}

// len returns the resident entry count.
func (c *instanceCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// decomposition returns the entry's decomposition under engine, computing
// it on first use. The entry lock is not held during the solve, so a slow
// decomposition never blocks unrelated lookups; concurrent first requests
// may duplicate work, in which case the first published result wins (the
// results are identical — the engines are exact).
func (e *cacheEntry) decomposition(ctx context.Context, engine bottleneck.Engine) (*bottleneck.Decomposition, error) {
	e.mu.Lock()
	if e.decs != nil {
		if d, ok := e.decs[engine]; ok {
			e.mu.Unlock()
			return d, nil
		}
	}
	e.mu.Unlock()
	d, err := bottleneck.DecomposeCtx(ctx, e.g, engine)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.decs == nil {
		e.decs = make(map[bottleneck.Engine]*bottleneck.Decomposition)
	}
	if prev, ok := e.decs[engine]; ok {
		return prev, nil
	}
	e.decs[engine] = d
	return d, nil
}

// mechAllocation returns the entry's allocation under mechanism m,
// computing it on first use. For decomposition-based backends (bd) it is
// the classic decompose-then-compute path — engine selection honored,
// decompositions shared with /v1/decompose; any other backend allocates
// directly. The one alloc slot per entry stays unambiguous because entry
// keys are mechanism-scoped (mechKey): a non-bd mechanism never resolves to
// a bd entry or vice versa.
func (e *cacheEntry) mechAllocation(ctx context.Context, m mechanism.Mechanism, engine bottleneck.Engine) (*allocation.Allocation, error) {
	e.mu.Lock()
	a := e.alloc
	e.mu.Unlock()
	if a != nil {
		return a, nil
	}
	var err error
	if _, ok := m.(mechanism.Decomposer); ok {
		var d *bottleneck.Decomposition
		if d, err = e.decomposition(ctx, engine); err == nil {
			a, err = allocation.Compute(e.g, d)
		}
	} else {
		a, err = m.Allocate(ctx, e.g)
	}
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.alloc == nil {
		e.alloc = a
	}
	return e.alloc, nil
}

// instance returns the entry's core.Instance for agent v, constructing it
// on first use. The construction decomposes the ring, so it runs outside
// the entry lock like the other getters; ctx carries cancellation and any
// obs span into the honest-baseline decomposition.
func (e *cacheEntry) instance(ctx context.Context, v int) (*core.Instance, error) {
	if v < 0 || v >= e.g.N() {
		return nil, fmt.Errorf("agent %d out of range [0, %d)", v, e.g.N())
	}
	e.mu.Lock()
	if in, ok := e.instances[v]; ok {
		e.mu.Unlock()
		return in, nil
	}
	e.mu.Unlock()
	in, err := core.NewInstanceCtx(ctx, e.g, v)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.instances == nil {
		e.instances = make(map[int]*core.Instance)
	}
	if prev, ok := e.instances[v]; ok {
		return prev, nil
	}
	e.instances[v] = in
	return in, nil
}

// ratio returns the memoized /v1/ratio answer for k, if a run finished one.
func (e *cacheEntry) ratio(k ratioKey) (ratioBatchResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rb, ok := e.ratios[k]
	return rb, ok
}

// storeRatio memoizes a finished /v1/ratio answer for k; the first stored
// answer wins. Every mechanism's ratio is exact and deterministic, so a
// later run could only store the same bytes. The memo lives and dies with
// the entry: LRU eviction drops it, and a pass-through entry of a
// zero-capacity cache is never looked up again.
func (e *cacheEntry) storeRatio(k ratioKey, rb ratioBatchResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ratios == nil {
		e.ratios = make(map[ratioKey]ratioBatchResult)
	}
	if _, ok := e.ratios[k]; !ok {
		e.ratios[k] = rb
	}
}
