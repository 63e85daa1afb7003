// Package scenario is the strategic-manipulation engine: deterministic,
// checkpointable grid searches over attack spaces that go beyond the
// paper's single-agent two-identity ring split. Three scenario kinds exist,
// each runnable against any registered mechanism (internal/mechanism):
//
//   - k-identity Sybil (KSybil): one ring agent splits into k identities
//     over a (k−1)-dimensional weight-composition grid, generalizing the
//     two-identity sweep — which the k = 2 special case is, bit for bit;
//   - coalition manipulation (Coalition): m colluding agents jointly
//     misreport their endowments over an m-dimensional report grid, with
//     joint-utility objective and per-member gain attribution (the engine
//     form of the E16 experiment seed);
//   - topology scans (Topology): empirical incentive-ratio scans over
//     generated graph families (rings, trees, barbells, small-world,
//     Erdős–Rényi), recording the worst instance and deviation per family.
//
// Every engine is a kernel scan (internal/scan) plus a fold of its points
// into a result: a pinned enumeration order, Start resume and OnPoint
// checkpoints, partial results on cancellation (never on real errors),
// exact rational arithmetic throughout, and the earliest-maximum best rule
// — which is what makes the durable job kinds built on top
// (internal/server) recover bit identically from a WAL checkpoint.
package scenario

import (
	"fmt"

	"repro/internal/mechanism"
)

// Odometer enumerates the compositions of Total into K non-negative parts
// (the lattice Σ c_j = Total) in lexicographic order of the digit vector
// (c_1 most significant), optionally reduced by the isolated-identity
// symmetry (see NewOdometer). The enumeration is streaming — Next mutates the
// current digit vector in place — so a (k−1)-dimensional grid is walked
// without materializing it, and an index is a stable address: point i means
// the same composition in every process that ever resumes a scan.
type Odometer struct {
	total, k int
	reduced  bool
	c        []int
	started  bool
}

// NewOdometer returns an odometer over compositions of total ≥ 0 into
// k ≥ 1 parts. With reduced set and k ≥ 3, compositions whose interior
// digits (c_2..c_{k-1}) are not in non-increasing order are skipped: the
// interior identities of a k-way ring split have no neighbors, so
// permuting their weights yields the same attack, and only the canonical
// (non-increasing) representative of each interior multiset is evaluated.
// Reduction never applies to k ≤ 2 — the k = 2 enumeration stays exactly
// the sweep's index order (c_1 = 0, 1, ..., total).
func NewOdometer(total, k int, reduced bool) (*Odometer, error) {
	if total < 0 || k < 1 {
		return nil, fmt.Errorf("scenario: odometer needs total ≥ 0 and k ≥ 1, got (%d, %d)", total, k)
	}
	return &Odometer{total: total, k: k, reduced: reduced && k >= 3}, nil
}

// Next advances to the next composition, returning it (a slice owned by the
// odometer — copy before retaining) and false when the enumeration is
// exhausted. The first call returns the first composition (0, ..., 0, total).
func (o *Odometer) Next() ([]int, bool) {
	if !o.started {
		o.started = true
		o.c = make([]int, o.k)
		o.c[o.k-1] = o.total
		if o.admissible() {
			return o.c, true
		}
	}
	for o.advance() {
		if o.admissible() {
			return o.c, true
		}
	}
	return nil, false
}

// advance moves to the next candidate composition. From an admissible state
// it takes the raw lexicographic successor; from an inadmissible one it
// jumps past the whole condemned block at once: a violation c_{i-1} < c_i
// at the leftmost interior index i rules out every composition sharing the
// digits up to position i (all lexicographic successors inside that block
// keep their digit i ≥ c_i > c_{i-1}), so the successor increments position i−1
// directly. Without the jump, reduced enumerations crawl one raw
// composition at a time through blocks that hold a single admissible point
// — Count(limit) on a wide grid (say total 512 into 8 parts) would walk
// ~10^11 raw states before its second admissible one.
func (o *Odometer) advance() bool {
	if o.k == 1 {
		return false
	}
	j := o.k - 2
	if i := o.violation(); i >= 0 {
		j = i - 1
	}
	// tail holds everything at positions > j once positions ≤ j are fixed;
	// find the rightmost position ≤ j that can absorb one unit from it.
	for ; j >= 0; j-- {
		tail := 0
		for i := j + 1; i < o.k; i++ {
			tail += o.c[i]
		}
		if tail > 0 {
			o.c[j]++
			for i := j + 1; i < o.k-1; i++ {
				o.c[i] = 0
			}
			o.c[o.k-1] = tail - 1
			return true
		}
	}
	return false
}

// violation returns the leftmost interior index i with c_{i-1} < c_i, or
// −1 when the current composition is admissible.
func (o *Odometer) violation() int {
	if !o.reduced {
		return -1
	}
	for i := 2; i < o.k-1; i++ {
		if o.c[i-1] < o.c[i] {
			return i
		}
	}
	return -1
}

// admissible applies the interior reduction to the current composition.
func (o *Odometer) admissible() bool { return o.violation() < 0 }

// Count walks the enumeration and returns the number of admissible
// compositions, capped at limit (returning limit+1 when the cap is hit) so
// submission validation can reject explosive grids without enumerating
// them in full.
func (o *Odometer) Count(limit int) int {
	n := 0
	probe := &Odometer{total: o.total, k: o.k, reduced: o.reduced}
	for {
		if _, ok := probe.Next(); !ok {
			return n
		}
		n++
		if limit > 0 && n > limit {
			return n
		}
	}
}

// mechanismOrDefault resolves an engine's mechanism option (nil = the
// registry default, BD).
func mechanismOrDefault(m mechanism.Mechanism) (mechanism.Mechanism, error) {
	if m != nil {
		return m, nil
	}
	return mechanism.Get("")
}
