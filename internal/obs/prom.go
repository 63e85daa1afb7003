package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Histogram counts observations into fixed, ascending upper bounds: a
// value lands in the first bucket whose bound is ≥ it, and a value past
// the last bound counts only toward +Inf. It keeps the sum and count of
// every observation. It is not synchronized: its owner's lock guards it.
type Histogram struct {
	Bounds []float64 // ascending upper bounds, +Inf implicit
	Counts []int64   // per bucket, not cumulative; len(Bounds)
	Sum    float64
	Count  int64
}

// NewHistogram returns an empty histogram over bounds, which it shares.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.Bounds {
		if v <= ub {
			h.Counts[i]++
			break
		}
	}
	h.Sum += v
	h.Count++
}

// ObserveIn records v in m[key], a new histogram over bounds on first use.
func ObserveIn(m map[string]*Histogram, key string, bounds []float64, v float64) {
	h := m[key]
	if h == nil {
		h = NewHistogram(bounds)
		m[key] = h
	}
	h.Observe(v)
}

// Snapshot returns a copy of h that later observations leave alone.
func (h *Histogram) Snapshot() Histogram {
	c := *h
	c.Counts = slices.Clone(h.Counts)
	return c
}

// PromWriter writes the Prometheus text exposition format (version 0.0.4)
// with every metric name under Prefix (e.g. "irshared_"). Label values
// are given as name, value pairs in the order they print, and print
// %q-quoted.
type PromWriter struct {
	W      io.Writer
	Prefix string
}

// Family writes a metric family's HELP and TYPE lines.
func (p PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s%s %s\n# TYPE %s%s %s\n", p.Prefix, name, help, p.Prefix, name, typ)
}

// Sample writes one sample of name.
func (p PromWriter) Sample(name string, v int64, labels ...string) {
	fmt.Fprintf(p.W, "%s%s%s %d\n", p.Prefix, name, labelSet(labels), v)
}

// Scalar writes a family with one unlabelled sample.
func (p PromWriter) Scalar(name, typ, help string, v int64) {
	p.Family(name, typ, help)
	p.Sample(name, v)
}

// Histogram writes h as name's cumulative _bucket samples (le formatted
// %g, then +Inf), its _sum (%g) and its _count.
func (p PromWriter) Histogram(name string, h *Histogram, labels ...string) {
	le := append(slices.Clip(labels), "le", "")
	cum := int64(0)
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		le[len(le)-1] = fmt.Sprintf("%g", ub)
		p.Sample(name+"_bucket", cum, le...)
	}
	le[len(le)-1] = "+Inf"
	p.Sample(name+"_bucket", h.Count, le...)
	fmt.Fprintf(p.W, "%s%s_sum%s %g\n", p.Prefix, name, labelSet(labels), h.Sum)
	p.Sample(name+"_count", h.Count, labels...)
}

// labelSet renders name, value pairs as {name="value",...}; no pairs
// render as the empty string.
func labelSet(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&b, "%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	b.WriteByte('}')
	return b.String()
}

// SortedKeys returns m's keys ordered by cmp: the order a family lists its
// samples in, so scrapes are deterministic.
func SortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}
