// Package mechanism defines the pluggable allocation-mechanism backend
// interface and its process-wide registry. A Mechanism maps a weighted
// resource-sharing network to an allocation; the paper's BD Allocation
// Mechanism is the first registered backend ("bd"), and alternatives from
// the related literature register alongside it so identical instances —
// and identical Sybil attacks — can be evaluated under competing
// mechanisms (see NewTournament).
//
// The registry is deliberately deterministic: Names and Infos iterate in
// sorted name order regardless of registration order, so API listings and
// tournament output are byte-stable for golden tests.
package mechanism

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// Mechanism is one allocation mechanism backend: a deterministic map from a
// weighted graph to a resource allocation. Implementations must be safe for
// concurrent use and must return bit-identical allocations for equal inputs
// (the tournament and cache layers depend on it).
type Mechanism interface {
	// Name is the stable registry key ("bd", "pr", ...): lowercase, no
	// spaces, part of the wire API.
	Name() string
	// Allocate computes the mechanism's allocation of g. The context
	// carries cancellation (and tracing) into the computation.
	Allocate(ctx context.Context, g *graph.Graph) (*allocation.Allocation, error)
}

// Optional capability interfaces. A Mechanism may additionally implement
// any of these; callers discover capabilities by type assertion (or via
// Info, which records them as flags).

// Decomposer exposes the bottleneck decomposition underlying the mechanism.
// Only mechanisms whose allocation is derived from a bottleneck
// decomposition (BD) implement it; /v1/decompose and certificates are
// defined in terms of this capability. A Decomposer's utilities are its
// decomposition's (Proposition 6: w_v·α_v on the B side, w_v/α_v on the C
// side), so Utilities reads them without building the allocation.
type Decomposer interface {
	Decompose(ctx context.Context, g *graph.Graph, engine bottleneck.Engine) (*bottleneck.Decomposition, error)
}

// Utilities returns every agent's utility under m on g: a Decomposer's
// from its decomposition under the automatic engine, any other
// mechanism's from its allocation. Callers that need only utilities use it;
// callers that serve the allocation itself call Allocate.
func Utilities(ctx context.Context, m Mechanism, g *graph.Graph) ([]numeric.Rat, error) {
	if d, ok := m.(Decomposer); ok {
		dec, err := d.Decompose(ctx, g, bottleneck.EngineAuto)
		if err != nil {
			return nil, err
		}
		return dec.Utilities(g), nil
	}
	a, err := m.Allocate(ctx, g)
	if err != nil {
		return nil, err
	}
	return a.Utilities(), nil
}

// RingOptimizer computes the exact incentive ratio on a ring via a
// certified optimizer rather than a grid. BD implements it (core.Instance's
// piecewise search); mechanisms without it report the empirical grid ratio.
type RingOptimizer interface {
	OptimizeRing(ctx context.Context, g *graph.Graph, v int, opts core.OptimizeOptions) (*core.OptResult, error)
}

// Certifier marks mechanisms whose answers can ship exact-rational
// certificates (internal/cert). Certificates encode BD-specific structure
// (covers, α-chains), so for now only the BD backend implements it; the
// wire layer answers cert_limit for any other mechanism.
type Certifier interface {
	Certifiable() bool
}

// Info is the discovery record of one registered mechanism, served by
// GET /v1/mechanisms and repro.Mechanisms. The capability flags mirror the
// optional interfaces above.
type Info struct {
	// Name is the registry key, usable as the "mechanism" wire field.
	Name string `json:"name"`
	// Description is a one-line human description.
	Description string `json:"description"`
	// Certifiable reports that answers can carry exact-rational
	// certificates (?cert=1). BD only, for now.
	Certifiable bool `json:"certifiable"`
	// ExactRatio reports that /v1/ratio runs a certified exact optimizer;
	// false means the ratio is the empirical best over the sweep grid.
	ExactRatio bool `json:"exact_ratio"`
}

// Describer lets a mechanism supply its one-line description; mechanisms
// without it get an empty description in Info.
type Describer interface {
	Description() string
}

// registry is the process-wide mechanism table. Registration happens in
// package init functions; reads vastly dominate, so a plain mutex is fine.
var registry = struct {
	mu sync.Mutex
	m  map[string]Mechanism
}{m: make(map[string]Mechanism)}

// Register adds m to the registry. It panics on an empty name or a
// duplicate registration — both are programmer errors that must fail at
// init, not at first request.
func Register(m Mechanism) {
	name := m.Name()
	if name == "" {
		panic("mechanism: Register with empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("mechanism: duplicate registration of %q", name))
	}
	registry.m[name] = m
}

// Default is the name resolved when a caller does not select a mechanism:
// the paper's BD Allocation Mechanism, making the pluggable layer invisible
// (and bit-identical) for existing callers.
const Default = "bd"

// ErrUnknown wraps an unresolvable mechanism name; the wire layer maps it
// to the stable error code unknown_mechanism.
type ErrUnknown struct{ Name string }

func (e *ErrUnknown) Error() string {
	return fmt.Sprintf("unknown mechanism %q (known: %v)", e.Name, Names())
}

// Get resolves name ("" = Default) against the registry.
func Get(name string) (Mechanism, error) {
	if name == "" {
		name = Default
	}
	registry.mu.Lock()
	m, ok := registry.m[name]
	registry.mu.Unlock()
	if !ok {
		return nil, &ErrUnknown{Name: name}
	}
	return m, nil
}

// Names returns the registered mechanism names in sorted order —
// registration-order independent, so listings are byte-stable.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Infos returns the discovery records of every registered mechanism, in
// sorted name order.
func Infos() []Info {
	names := Names()
	infos := make([]Info, 0, len(names))
	for _, n := range names {
		m, err := Get(n)
		if err != nil {
			continue // racy unregister cannot happen; defensive only
		}
		infos = append(infos, infoOf(m))
	}
	return infos
}

// infoOf derives the discovery record from the mechanism's capabilities.
func infoOf(m Mechanism) Info {
	info := Info{Name: m.Name()}
	if d, ok := m.(Describer); ok {
		info.Description = d.Description()
	}
	if c, ok := m.(Certifier); ok {
		info.Certifiable = c.Certifiable()
	}
	_, info.ExactRatio = m.(RingOptimizer)
	return info
}
