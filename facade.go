package repro

import (
	"context"
	"fmt"

	"repro/internal/allocation"
	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/sybil"
)

// MechanismInfo describes one registered allocation-mechanism backend; see
// Mechanisms and WithMechanism.
type MechanismInfo = mechanism.Info

// Mechanisms lists every registered allocation-mechanism backend in sorted
// name order (byte-stable regardless of registration order). Any listed
// name is a valid WithMechanism argument; the capability flags say which
// facade calls it supports beyond Allocate.
func Mechanisms() []MechanismInfo { return mechanism.Infos() }

// Engine selects the bottleneck decomposition algorithm.
type Engine = bottleneck.Engine

// Engine values for WithEngine.
const (
	// EngineAuto picks the path/cycle DP where the graph allows it and the
	// parametric max-flow oracle otherwise (the default).
	EngineAuto = bottleneck.EngineAuto
	// EngineFlow forces the parametric max-flow oracle.
	EngineFlow = bottleneck.EngineFlow
	// EnginePathDP forces the path/cycle dynamic program.
	EnginePathDP = bottleneck.EnginePathDP
	// EngineBrute forces the exponential reference oracle (tiny graphs).
	EngineBrute = bottleneck.EngineBrute
)

// Observability types, re-exported from the internal recorder so library
// callers can trace solves without importing internal packages.
type (
	// Recorder mints span traces; pass one via WithRecorder to record a
	// facade call's full solver span tree.
	Recorder = obs.Recorder
	// TraceCapture is the minimal Recorder: it retains the last finished
	// trace, retrievable with its Last method.
	TraceCapture = obs.Capture
	// TraceSnapshot is the immutable span tree of a finished trace.
	TraceSnapshot = obs.TraceSnapshot
	// SpanSnapshot is one node of a TraceSnapshot.
	SpanSnapshot = obs.SpanSnapshot
)

// Certificate re-exports and helpers: the exact-rational certificates of
// internal/cert, verifiable with the solver-free checker without trusting
// (or re-running) any solver code.
type (
	// DecompositionCertificate proves a bottleneck decomposition: cover
	// structure, per-pair Hall-condition flow witnesses, utilities.
	DecompositionCertificate = cert.DecompositionCert
	// RatioCertificate proves an incentive-ratio answer end to end,
	// including the Theorem 8 bound ratio ≤ 2.
	RatioCertificate = cert.RatioCert
	// SweepCertificate proves a split-utility sweep segment.
	SweepCertificate = cert.SweepCert
	// CheckableCertificate is any certificate CheckCertificate accepts.
	CheckableCertificate = cert.Checkable
)

// CheckCertificate re-verifies a certificate in O(|certificate|) exact
// arithmetic, without invoking any solver code. It is the trust boundary:
// a certificate that passes proves its claims regardless of where it came
// from.
func CheckCertificate(c CheckableCertificate) error { return cert.Check(c) }

// Certificate receives the certificates of one facade call made with
// WithCertificate. Only the field matching the call is populated:
// Decomposition by Decompose, Ratio by IncentiveRatio, Sweep by RingSweep.
// Every populated certificate has already passed CheckCertificate.
type Certificate struct {
	Decomposition *DecompositionCertificate
	Ratio         *RatioCertificate
	Sweep         *SweepCertificate
}

// Option configures one facade call (Decompose, Allocate, IncentiveRatio,
// RingSweep). Options that a call does not use are ignored, so a shared
// option slice can be reused across calls.
type Option func(*callOptions)

type callOptions struct {
	engine   Engine
	workers  int
	parallel bool
	grid     int
	rec      Recorder
	dec      *Decomposition
	cert     *Certificate
	mech     string
}

func gatherOptions(opts []Option) callOptions {
	var o callOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// traced installs a fresh trace from the call's recorder (if any) into ctx;
// the returned finish must be called when the facade call ends.
func (o callOptions) traced(ctx context.Context, name string) (context.Context, func()) {
	if o.rec == nil {
		return ctx, func() {}
	}
	tr := o.rec.NewTrace(name)
	return tr.Context(ctx), tr.Finish
}

// WithEngine selects the decomposition engine (default EngineAuto).
func WithEngine(e Engine) Option {
	return func(o *callOptions) { o.engine = e }
}

// WithWorkers bounds the call's parallelism (n ≤ 0 = GOMAXPROCS). For
// Decompose and Allocate it additionally enables per-component parallel
// decomposition; for IncentiveRatio and RingSweep it bounds the evaluation
// workers.
func WithWorkers(n int) Option {
	return func(o *callOptions) { o.workers = n; o.parallel = true }
}

// WithGrid sets the optimizer/sweep grid resolution (0 = the documented
// default of the underlying solver). Used by IncentiveRatio and RingSweep.
func WithGrid(n int) Option {
	return func(o *callOptions) { o.grid = n }
}

// WithRecorder records the call as a span tree minted from r: solver stages,
// per-iteration Dinkelbach events, max-flow calls and cache counters all
// land in one trace. Results are bit-identical with and without a recorder.
func WithRecorder(r Recorder) Option {
	return func(o *callOptions) { o.rec = r }
}

// WithDecomposition supplies a precomputed decomposition so Allocate skips
// its own Decompose step.
func WithDecomposition(d *Decomposition) Option {
	return func(o *callOptions) { o.dec = d }
}

// WithMechanism selects the allocation-mechanism backend by registry name
// (see Mechanisms). The default, "bd", is the paper's BD Allocation
// Mechanism and is bit-identical to omitting the option. Alternative
// backends answer Allocate, IncentiveRatio (empirical grid ratio) and
// RingSweep; bottleneck decomposition and exact-rational certificates are
// BD-only capabilities, so Decompose or WithCertificate under a mechanism
// lacking them returns an error rather than an answer of the wrong kind.
func WithMechanism(name string) Option {
	return func(o *callOptions) { o.mech = name }
}

// WithCertificate asks the call to also build an exact-rational certificate
// of its answer into dst (the field matching the call; see Certificate).
// The certificate is self-checked with CheckCertificate before the call
// returns — a facade answer never ships with an unverified certificate —
// and can be re-checked at any time, serialized, or handed to a third
// party. Answers are bit-identical with and without certification; the
// extra cost is the builder's witness flows. A nil dst disables the option.
func WithCertificate(dst *Certificate) Option {
	return func(o *callOptions) { o.cert = dst }
}

// selfCheck gates every facade-built certificate behind the solver-free
// checker before it reaches the caller.
func selfCheck(c CheckableCertificate, err error) error {
	if err != nil {
		return err
	}
	if err := cert.Check(c); err != nil {
		return fmt.Errorf("repro: built certificate failed its self-check: %w", err)
	}
	return nil
}

// mechanismOf resolves the call's backend against the registry ("" = bd).
func (o callOptions) mechanismOf() (mechanism.Mechanism, error) {
	return mechanism.Get(o.mech)
}

// errCertMechanism is the facade-level counterpart of the wire cert_limit:
// a certificate was requested from a backend that cannot prove its answers.
func errCertMechanism(m mechanism.Mechanism) error {
	return fmt.Errorf("repro: certificates are only available for certifiable mechanisms (bd), not %q", m.Name())
}

// decompose is the one shared decomposition path of the facade, routed
// through the mechanism registry: the backend must expose the Decomposer
// capability (today, only bd). The bd path dispatches to the exact same
// bottleneck solvers as before the registry existed.
func (o callOptions) decompose(ctx context.Context, g *Graph) (*Decomposition, error) {
	m, err := o.mechanismOf()
	if err != nil {
		return nil, err
	}
	dec, ok := m.(mechanism.Decomposer)
	if !ok {
		return nil, fmt.Errorf("repro: mechanism %q does not expose a bottleneck decomposition", m.Name())
	}
	if o.parallel {
		if pd, ok := m.(interface {
			DecomposeParallel(context.Context, *Graph, Engine, int) (*Decomposition, error)
		}); ok {
			return pd.DecomposeParallel(ctx, g, o.engine, o.workers)
		}
	}
	return dec.Decompose(ctx, g, o.engine)
}

// Decompose computes the bottleneck decomposition of g (Definition 2). The
// context carries cancellation and, via WithRecorder, tracing; WithEngine
// selects the solver and WithWorkers enables per-component parallelism.
// Every engine and worker configuration returns bit-identical results.
func Decompose(ctx context.Context, g *Graph, opts ...Option) (*Decomposition, error) {
	o := gatherOptions(opts)
	ctx, finish := o.traced(ctx, "repro.decompose")
	defer finish()
	d, err := o.decompose(ctx, g)
	if err != nil {
		return nil, err
	}
	if o.cert != nil {
		dc, err := build.Decomposition(ctx, g, d)
		if err := selfCheck(dc, err); err != nil {
			return nil, err
		}
		o.cert.Decomposition = dc
	}
	return d, nil
}

// Allocate computes the selected mechanism's allocation of g. The default
// backend is the BD Allocation Mechanism (Definition 5): the exact
// equilibrium allocation of the proportional response dynamics, decomposing
// g itself (honoring WithEngine/WithWorkers) unless WithDecomposition
// supplies a precomputed decomposition. WithMechanism swaps in an
// alternative backend, which allocates directly (no decomposition stage, so
// WithDecomposition is rejected).
func Allocate(ctx context.Context, g *Graph, opts ...Option) (*Allocation, error) {
	o := gatherOptions(opts)
	ctx, finish := o.traced(ctx, "repro.allocate")
	defer finish()
	m, err := o.mechanismOf()
	if err != nil {
		return nil, err
	}
	if _, ok := m.(mechanism.Decomposer); !ok {
		if o.dec != nil {
			return nil, fmt.Errorf("repro: WithDecomposition requires a decomposition-based mechanism, not %q", m.Name())
		}
		return m.Allocate(ctx, g)
	}
	d := o.dec
	if d == nil {
		if d, err = o.decompose(ctx, g); err != nil {
			return nil, err
		}
	}
	return allocation.Compute(g, d)
}

// IncentiveRatio returns ζ_v: agent v's best Sybil gain factor on ring g,
// exactly evaluated by the certified piecewise optimizer (Theorem 8
// guarantees ζ_v ≤ 2). WithGrid tunes the optimizer's seed grid and
// WithWorkers its parallel evaluation; the result is bit-identical for
// every configuration.
func IncentiveRatio(ctx context.Context, g *Graph, v int, opts ...Option) (Rat, error) {
	o := gatherOptions(opts)
	ctx, finish := o.traced(ctx, "repro.incentive_ratio")
	defer finish()
	m, err := o.mechanismOf()
	if err != nil {
		return Rat{}, err
	}
	if o.cert != nil && !mechanism.Certifiable(m) {
		return Rat{}, errCertMechanism(m)
	}
	ro, ok := m.(mechanism.RingOptimizer)
	if !ok {
		// No exact optimizer for this backend: the ratio is the empirical
		// best over the sweep grid (WithGrid; default 64).
		res, err := mechanism.RingSweep(ctx, m, g, v, sybil.SweepOptions{Grid: o.grid, Workers: o.workers})
		if err != nil {
			return Rat{}, err
		}
		return res.Ratio, nil
	}
	if o.cert == nil {
		opt, err := ro.OptimizeRing(ctx, g, v, core.OptimizeOptions{Grid: o.grid, Workers: o.workers})
		if err != nil {
			return Rat{}, err
		}
		return opt.Ratio, nil
	}
	// The certified path runs the identical instance + optimizer pipeline,
	// keeping the intermediate results the builder needs.
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		return Rat{}, err
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: o.grid, Workers: o.workers})
	if err != nil {
		return Rat{}, err
	}
	rc, err := build.Ratio(ctx, in, opt)
	if err := selfCheck(rc, err); err != nil {
		return Rat{}, err
	}
	o.cert.Ratio = rc
	return opt.Ratio, nil
}

// SweepPoint and SweepResult are the exactly evaluated samples and the
// outcome of RingSweep.
type (
	SweepPoint  = sybil.SweepPoint
	SweepResult = sybil.SweepResult
)

// RingSweep evaluates agent v's two-identity split utility curve on ring g
// at WithGrid+1 evenly spaced points (default grid 64), sharing one solver
// instance so the incremental split engine is reused across the curve.
func RingSweep(ctx context.Context, g *Graph, v int, opts ...Option) (*SweepResult, error) {
	o := gatherOptions(opts)
	ctx, finish := o.traced(ctx, "repro.ring_sweep")
	defer finish()
	m, err := o.mechanismOf()
	if err != nil {
		return nil, err
	}
	if o.cert != nil && !mechanism.Certifiable(m) {
		return nil, errCertMechanism(m)
	}
	res, err := mechanism.RingSweep(ctx, m, g, v, sybil.SweepOptions{Grid: o.grid, Workers: o.workers})
	if err != nil {
		return nil, err
	}
	if o.cert != nil && !res.Partial && len(res.Points) > 0 {
		grid := o.grid
		if grid <= 0 {
			grid = 64 // sybil's documented default
		}
		in, err := core.NewInstanceCtx(ctx, g, v)
		if err != nil {
			return nil, err
		}
		sc, err := build.Sweep(ctx, in, res, grid)
		if err := selfCheck(sc, err); err != nil {
			return nil, err
		}
		o.cert.Sweep = sc
	}
	return res, nil
}
