// Package fault is a deterministic fault-injection registry: the chaos
// counterpart of internal/obs. Solvers and the server declare named
// injection sites (SiteDinkelbach, SiteMaxflowPush, ...); an Injector built
// from seeded Rules decides, per hit, whether to inject an error, extra
// latency, or a panic at that site. The injector travels through
// context.Context exactly like an obs span, so the same plumbing that
// carries cancellation and tracing carries faults.
//
// The design goal mirrors obs: a near-zero disabled path. With no injector
// installed, Hit is a single context Value lookup returning nil; hot paths
// that cannot afford even that (maxflow's per-arc push loop) cache the
// injector in a struct field once per solve and pay one nil pointer check
// per iteration.
//
// Decisions are deterministic: every site keeps an atomic hit counter, and
// rule firing is a pure function of (seed, site, rule, hit index). Two runs
// of a single-threaded workload inject at identical points; concurrent
// workloads are deterministic per interleaving (the counter serializes
// hits, not goroutines). Retrying a failed operation advances the counter,
// so probabilistic rules converge — the property the chaos suite leans on.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The canonical injection-site registry. Sites are declared here (not
// scattered across packages) so a chaos spec can be validated up front: a
// typo in -chaos is a startup error, not a silently dead rule.
const (
	// SiteDinkelbach fires once per Dinkelbach iteration, in the one loop
	// (bottleneck.dinkelbachLoop) that every decomposition stage runs on,
	// the incremental split solver's stages included.
	SiteDinkelbach = "decompose.dinkelbach"
	// SiteMaxflowPush fires once per elementary flow push inside a max-flow
	// solve. Errors cannot propagate out of the flow kernels, so error
	// injections at this site escalate to contained panics (StrikePanic).
	SiteMaxflowPush = "maxflow.push"
	// SiteServerCompute fires once per request at the top of every /v1
	// handler's compute stage.
	SiteServerCompute = "server.compute"
	// SiteCacheGet fires once per instance-cache lookup in the server.
	SiteCacheGet = "cache.get"
	// SiteSweepPoint fires once per grid point of a split-utility sweep.
	SiteSweepPoint = "sweep.point"
	// SiteScenarioPoint fires once per evaluated point of a scenario grid
	// search (k-identity Sybil compositions, coalition joint reports,
	// topology-scan instances alike).
	SiteScenarioPoint = "scenario.point"
	// SiteServerBatch fires once per batched /v1/ratio computation, inside
	// the detached batch goroutine (exercising the batcher's containment).
	SiteServerBatch = "server.batch"
	// SiteJobsWAL fires once per job-store WAL append — state transitions
	// and checkpoint deltas alike. An injected error surfaces as a failed
	// submit or a failed job, never a corrupt log.
	SiteJobsWAL = "jobs.wal.append"
	// SiteJobsRecover fires once per job considered during startup recovery
	// of the durable job store; an injected error aborts the boot loudly.
	SiteJobsRecover = "jobs.recover"
	// SiteClusterProbe fires once per health probe the cluster router sends
	// to a backend. An injected error looks exactly like a failed probe, so
	// chaos rules here drive nodes through the dead→alive membership cycle.
	SiteClusterProbe = "cluster.probe"
	// SiteClusterLease fires once per lease-log append in the cluster
	// router (grants, renewals, retirements). An injected error surfaces as
	// a failed lease write; the router must degrade without corrupting its
	// lease table.
	SiteClusterLease = "cluster.lease"
)

// Sites returns the registered site names, sorted.
func Sites() []string {
	s := []string{
		SiteDinkelbach,
		SiteMaxflowPush,
		SiteServerCompute,
		SiteCacheGet,
		SiteSweepPoint,
		SiteScenarioPoint,
		SiteServerBatch,
		SiteJobsWAL,
		SiteJobsRecover,
		SiteClusterProbe,
		SiteClusterLease,
	}
	sort.Strings(s)
	return s
}

// Kind is the effect of an injection.
type Kind int

const (
	// KindError makes Hit/Strike return an *Error wrapping ErrInjected.
	KindError Kind = iota
	// KindLatency makes Hit/Strike sleep for the rule's Latency, then
	// proceed normally.
	KindLatency
	// KindPanic makes Hit/Strike panic with a *PanicValue — exercising the
	// containment barriers, which must convert it into a structured error
	// instead of letting the process die.
	KindPanic
)

// String names the kind as in the spec grammar.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule arms one site with one effect. Exactly one of Rate / Every selects
// hits: Rate fires pseudo-randomly (seeded, deterministic per hit index)
// with the given probability; Every fires deterministically on every N-th
// hit. Limit, when positive, caps the total number of injections from this
// rule — the "finite fault budget" shape chaos tests use to guarantee
// convergence.
type Rule struct {
	// Site is a registered site name, a prefix wildcard ("maxflow.*"), or
	// "*" for every registered site.
	Site string
	Kind Kind
	// Rate is the per-hit injection probability in (0, 1]. Ignored when
	// Every is set.
	Rate float64
	// Every fires on hits N, 2N, 3N, ... when positive.
	Every int64
	// Latency is the injected delay for KindLatency rules.
	Latency time.Duration
	// Limit caps total injections from this rule (0 = unlimited).
	Limit int64
}

func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s=%s:", r.Site, r.Kind)
	if r.Every > 0 {
		fmt.Fprintf(&b, "1/%d", r.Every)
	} else {
		fmt.Fprintf(&b, "%g", r.Rate)
	}
	if r.Kind == KindLatency {
		fmt.Fprintf(&b, ":%s", r.Latency)
	}
	if r.Limit > 0 {
		fmt.Fprintf(&b, ":limit=%d", r.Limit)
	}
	return b.String()
}

// ErrInjected is the sentinel every injected error wraps. Layers that must
// distinguish synthetic faults from real failures (the server maps them to
// retryable 503s) test errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// Error is one injected error: the site it fired at and the hit index.
type Error struct {
	Site string
	N    int64 // 1-based hit index at the site
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s (hit %d)", e.Site, e.N)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *Error) Unwrap() error { return ErrInjected }

// PanicValue is the payload of an injected panic. Containment barriers
// (par.Protect, the server's handler barrier) see it like any other panic
// value; tests recognize it to assert the panic was synthetic.
type PanicValue struct {
	Site string
	N    int64
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Site, p.N)
}

// compiled is one armed rule plus its injection counter.
type compiled struct {
	rule     Rule
	salt     uint64
	injected atomic.Int64
}

// siteState is the armed state of one site.
type siteState struct {
	hits  atomic.Int64
	rules []*compiled
}

// Injector is an immutable set of armed sites plus their mutable counters.
// Safe for concurrent use; the zero of *Injector (nil) is a no-op.
type Injector struct {
	seed  uint64
	sites map[string]*siteState
	rules []Rule // as armed, for String()
}

// New arms rules against the site registry. Wildcard sites expand to every
// matching registered site; a rule whose site matches nothing, a rate
// outside (0, 1], or a latency rule without a duration is a construction
// error — chaos configuration fails loudly, never silently.
func New(seed uint64, rules ...Rule) (*Injector, error) {
	inj := &Injector{seed: seed, sites: make(map[string]*siteState)}
	known := Sites()
	for i, r := range rules {
		if r.Every < 0 {
			return nil, fmt.Errorf("fault: rule %d (%s): negative every %d", i, r.Site, r.Every)
		}
		if r.Every == 0 && (r.Rate <= 0 || r.Rate > 1) {
			return nil, fmt.Errorf("fault: rule %d (%s): rate %g outside (0, 1]", i, r.Site, r.Rate)
		}
		if r.Kind == KindLatency && r.Latency <= 0 {
			return nil, fmt.Errorf("fault: rule %d (%s): latency rule without a positive duration", i, r.Site)
		}
		targets := expandSite(r.Site, known)
		if len(targets) == 0 {
			return nil, fmt.Errorf("fault: rule %d: unknown site %q (known: %s)", i, r.Site, strings.Join(known, ", "))
		}
		for _, site := range targets {
			st := inj.sites[site]
			if st == nil {
				st = &siteState{}
				inj.sites[site] = st
			}
			st.rules = append(st.rules, &compiled{
				rule: r,
				salt: splitmix64(seed ^ fnv64(site) ^ (uint64(i+1) * 0x9e3779b97f4a7c15)),
			})
		}
		inj.rules = append(inj.rules, r)
	}
	return inj, nil
}

// expandSite resolves a rule site against the registry: exact match, "*",
// or "prefix.*".
func expandSite(site string, known []string) []string {
	if site == "*" {
		return known
	}
	if prefix, ok := strings.CutSuffix(site, "*"); ok {
		var out []string
		for _, k := range known {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		return out
	}
	for _, k := range known {
		if k == site {
			return []string{site}
		}
	}
	return nil
}

// String renders the armed rules in spec-grammar form plus the seed.
func (inj *Injector) String() string {
	if inj == nil {
		return "<disabled>"
	}
	parts := make([]string, len(inj.rules))
	for i, r := range inj.rules {
		parts[i] = r.String()
	}
	return fmt.Sprintf("seed=%d %s", inj.seed, strings.Join(parts, ";"))
}

// Strike consults the injector for one hit at site. A nil injector and an
// unarmed site both cost one map lookup and return nil. Latency rules
// sleep and fall through; error rules return an *Error; panic rules panic
// with a *PanicValue.
func (inj *Injector) Strike(site string) error {
	if inj == nil {
		return nil
	}
	st := inj.sites[site]
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	for _, c := range st.rules {
		if !c.fires(n) {
			continue
		}
		switch c.rule.Kind {
		case KindLatency:
			time.Sleep(c.rule.Latency)
		case KindError:
			return &Error{Site: site, N: n}
		case KindPanic:
			panic(&PanicValue{Site: site, N: n})
		}
	}
	return nil
}

// StrikePanic is Strike for sites that cannot propagate an error (the flow
// kernels): an injected error escalates to a *PanicValue panic so a
// containment barrier still sees it; latency behaves as usual.
func (inj *Injector) StrikePanic(site string) {
	if err := inj.Strike(site); err != nil {
		var e *Error
		errors.As(err, &e)
		panic(&PanicValue{Site: site, N: e.N})
	}
}

// fires decides hit n for this rule, deterministically, and consumes the
// rule's budget when it fires.
func (c *compiled) fires(n int64) bool {
	if c.rule.Limit > 0 && c.injected.Load() >= c.rule.Limit {
		return false
	}
	var hit bool
	if c.rule.Every > 0 {
		hit = n%c.rule.Every == 0
	} else {
		// Uniform in [0,1) from the top 53 bits of a splitmix64 draw.
		u := splitmix64(c.salt + uint64(n)*0xbf58476d1ce4e5b9)
		hit = float64(u>>11)/(1<<53) < c.rule.Rate
	}
	if !hit {
		return false
	}
	if c.rule.Limit > 0 && c.injected.Add(1) > c.rule.Limit {
		// Lost a race for the last budget slot; undo and pass.
		c.injected.Add(-1)
		return false
	}
	if c.rule.Limit == 0 {
		c.injected.Add(1)
	}
	return true
}

// SiteStats is one site's hit/injection counters.
type SiteStats struct {
	Hits     int64
	Injected int64
}

// Stats snapshots every armed site's counters, keyed by site name.
func (inj *Injector) Stats() map[string]SiteStats {
	if inj == nil {
		return nil
	}
	out := make(map[string]SiteStats, len(inj.sites))
	for site, st := range inj.sites {
		var injected int64
		for _, c := range st.rules {
			injected += c.injected.Load()
		}
		out[site] = SiteStats{Hits: st.hits.Load(), Injected: injected}
	}
	return out
}

// splitmix64 is the standard 64-bit finalizer-style mixer: deterministic,
// dependency-free, and good enough to turn (seed, site, hit) into an
// unbiased coin.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a site name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
