// Package enum exhaustively certifies small ring instances.
//
// It walks every ring of n ∈ [MinN, MaxN] vertices with integer weights in
// {1..Levels}, up to the symmetries that fix the designated attacker
// (vertex 0): rotations are factored out by pinning the attacker, the
// reflection through vertex 0 by keeping only tuples lexicographically ≤
// their mirror image, and global weight scaling by skipping tuples with
// gcd > 1. Every surviving instance is solved, certified (internal/cert/build)
// and independently re-verified (cert.Check); the summary records any
// failure, the maximum incentive ratio seen, and the near-tight frontier —
// instances whose ratio is within Eps of the paper's bound 2.
//
// The enumeration is deterministic and indexable (Enumerate returns the
// instance list in a fixed order), so NewScan runs it as a resumable kernel
// scan: instance i means the same ring in every process that ever computes
// it.
package enum

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// Options bounds the enumeration. Zero values select defaults.
type Options struct {
	// MinN and MaxN bound the ring size (defaults 3 and 6; MaxN ≤ 10).
	MinN, MaxN int
	// Levels is the number of integer weight levels 1..Levels (default 3,
	// ≤ 6): the coarse rational lattice, exhaustive up to scaling.
	Levels int
	// Grid is the split-optimizer grid per instance (default 8 — small, the
	// piecewise search refines it exactly).
	Grid int
	// Eps is the frontier threshold: instances with ratio ≥ 2 − Eps are
	// archived (default 1/2).
	Eps numeric.Rat
}

// Resolved returns the options with all defaults applied — what NewScan and
// Enumerate actually use. Callers persisting options (the durable-job
// layer) resolve them first so a stored spec never depends on defaults
// changing.
func (o Options) Resolved() Options {
	if o.MinN <= 0 {
		o.MinN = 3
	}
	if o.MaxN <= 0 {
		o.MaxN = 6
	}
	if o.Levels <= 0 {
		o.Levels = 3
	}
	if o.Grid <= 0 {
		o.Grid = 8
	}
	if o.Eps.IsZero() {
		o.Eps = numeric.New(1, 2)
	}
	return o
}

func (o Options) validate() error {
	if o.MinN < 3 {
		return fmt.Errorf("enum: MinN %d below 3 (smallest ring)", o.MinN)
	}
	if o.MaxN < o.MinN || o.MaxN > 10 {
		return fmt.Errorf("enum: MaxN %d outside [MinN, 10]", o.MaxN)
	}
	if o.Levels > 6 {
		return fmt.Errorf("enum: Levels %d above 6 (lattice explosion)", o.Levels)
	}
	return nil
}

// Spec identifies one enumerated instance: a ring of len(Weights) vertices,
// attacker fixed at vertex 0.
type Spec struct {
	Weights []int64
}

// Key renders the spec canonically, e.g. "r5:3,1,2,1,5".
func (s Spec) Key() string {
	parts := make([]string, len(s.Weights))
	for i, w := range s.Weights {
		parts[i] = fmt.Sprintf("%d", w)
	}
	return fmt.Sprintf("r%d:%s", len(s.Weights), strings.Join(parts, ","))
}

// Graph materializes the ring.
func (s Spec) Graph() *graph.Graph {
	ws := make([]numeric.Rat, len(s.Weights))
	for i, w := range s.Weights {
		ws[i] = numeric.FromInt(w)
	}
	return graph.Ring(ws)
}

// canonical reports whether w survives the symmetry reduction: it must be
// lexicographically ≤ its reflection through vertex 0 (the only ring
// automorphism fixing the attacker besides identity) and have gcd 1 (scale
// invariance of the incentive ratio).
func canonical(w []int64) bool {
	n := len(w)
	for i := 1; i < n; i++ {
		m := w[n-i] // reflection: σ(w)_i = w_{(n−i) mod n}
		if w[i] < m {
			break
		}
		if w[i] > m {
			return false
		}
	}
	g := w[0]
	for _, x := range w[1:] {
		g = gcd(g, x)
	}
	return g == 1
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Enumerate returns every canonical instance in a fixed deterministic
// order: ring sizes ascending, weight tuples in odometer order.
func Enumerate(o Options) ([]Spec, error) {
	o = o.Resolved()
	if err := o.validate(); err != nil {
		return nil, err
	}
	var specs []Spec
	for n := o.MinN; n <= o.MaxN; n++ {
		w := make([]int64, n)
		for i := range w {
			w[i] = 1
		}
		for {
			if canonical(w) {
				specs = append(specs, Spec{Weights: append([]int64(nil), w...)})
			}
			// Odometer increment over {1..Levels}^n.
			i := n - 1
			for ; i >= 0; i-- {
				if w[i] < int64(o.Levels) {
					w[i]++
					break
				}
				w[i] = 1
			}
			if i < 0 {
				break
			}
		}
	}
	return specs, nil
}

// Outcome is the certified result of one instance. Exactly one of Ratio and
// Err is set; a non-empty Err means the instance FAILED certification —
// solver error, builder error, or (the interesting case) cert.Check
// rejecting the solver's own answer.
type Outcome struct {
	Key   string `json:"key"`
	Ratio string `json:"ratio,omitempty"`
	Err   string `json:"err,omitempty"`
}

// Certify solves one instance, builds its ratio certificate and verifies it
// with the solver-free checker.
func Certify(ctx context.Context, sp Spec, grid int) Outcome {
	out := Outcome{Key: sp.Key()}
	g := sp.Graph()
	in, err := core.NewInstanceCtx(ctx, g, 0)
	if err != nil {
		out.Err = fmt.Sprintf("instance: %v", err)
		return out
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: grid})
	if err != nil {
		out.Err = fmt.Sprintf("optimize: %v", err)
		return out
	}
	rc, err := build.Ratio(ctx, in, opt)
	if err != nil {
		out.Err = fmt.Sprintf("build: %v", err)
		return out
	}
	if err := cert.Check(rc); err != nil {
		out.Err = fmt.Sprintf("check: %v", err)
		return out
	}
	out.Ratio = rc.Ratio
	return out
}

// Summary aggregates an enumeration run.
type Summary struct {
	Instances int       `json:"instances"`
	Certified int       `json:"certified"`
	Failures  []Outcome `json:"failures,omitempty"`
	// MaxRatio/MaxKey is the largest certified incentive ratio and the
	// instance achieving it.
	MaxRatio string `json:"max_ratio"`
	MaxKey   string `json:"max_key"`
	// Frontier archives the near-tight instances (ratio ≥ 2 − Eps), in
	// enumeration order.
	Frontier []Outcome `json:"frontier,omitempty"`
}

// Summarize folds per-instance outcomes into a Summary. It is exact: ratio
// strings are parsed back to rationals for the max and frontier
// comparisons, so a ratio above 2 can never hide behind formatting.
func Summarize(outs []Outcome, eps numeric.Rat) (*Summary, error) {
	if eps.IsZero() {
		eps = numeric.New(1, 2)
	}
	threshold := numeric.Two.Sub(eps)
	s := &Summary{Instances: len(outs), MaxRatio: "0"}
	maxR := numeric.Zero
	for _, out := range outs {
		if out.Err != "" {
			s.Failures = append(s.Failures, out)
			continue
		}
		r, err := parseRatio(out.Ratio)
		if err != nil {
			return nil, fmt.Errorf("enum: %s: %w", out.Key, err)
		}
		s.Certified++
		if maxR.Less(r) {
			maxR = r
			s.MaxRatio, s.MaxKey = out.Ratio, out.Key
		}
		if !r.Less(threshold) {
			s.Frontier = append(s.Frontier, out)
		}
	}
	return s, nil
}

func parseRatio(str string) (numeric.Rat, error) {
	br, ok := new(big.Rat).SetString(str)
	if !ok {
		return numeric.Zero, fmt.Errorf("unparsable ratio %q", str)
	}
	return numeric.FromBig(br), nil
}

// NewScan returns the enumeration as a kernel scan (internal/scan): point
// i certifies instance i of Enumerate(o). Per-instance certification
// failures are recorded in the Outcome, not raised — finding them is the
// point of the run — but a context error interrupts the scan, so a
// canceled certification never masquerades as a failed instance.
func NewScan(o Options) (scan.Scan[Outcome], error) {
	o = o.Resolved()
	specs, err := Enumerate(o)
	if err != nil {
		return scan.Scan[Outcome]{}, err
	}
	return scan.Scan[Outcome]{
		Len:  len(specs),
		Site: fault.SiteSweepPoint,
		Name: "enum: instance",
		Span: "enum.certify",
		Eval: func(ctx context.Context, i int) (Outcome, error) {
			out := Certify(ctx, specs[i], o.Grid)
			return out, ctx.Err()
		},
	}, nil
}
