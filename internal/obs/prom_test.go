package obs

import (
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 2, 2, 4.5, 5, 7} {
		h.Observe(v)
	}
	// A value equal to a bound lands in that bound's bucket; 7 is past
	// the last bound and counts only toward +Inf.
	want := []int64{2, 2, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("counts %v, want %v", h.Counts, want)
		}
	}
	if h.Count != 7 || h.Sum != 22 {
		t.Fatalf("count %d sum %g, want 7 and 22", h.Count, h.Sum)
	}
	snap := h.Snapshot()
	h.Observe(1)
	if snap.Counts[0] != 2 || snap.Count != 7 {
		t.Fatalf("snapshot moved with a later observation: %+v", snap)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.00005, 0.5, 2})
	h.Observe(0.00005)
	h.Observe(1)
	h.Observe(3)
	var b strings.Builder
	p := PromWriter{W: &b, Prefix: "x_"}
	p.Family("lat_seconds", "histogram", "Latency.")
	p.Histogram("lat_seconds", h, "endpoint", "/v1/ratio")
	want := `# HELP x_lat_seconds Latency.
# TYPE x_lat_seconds histogram
x_lat_seconds_bucket{endpoint="/v1/ratio",le="5e-05"} 1
x_lat_seconds_bucket{endpoint="/v1/ratio",le="0.5"} 1
x_lat_seconds_bucket{endpoint="/v1/ratio",le="2"} 2
x_lat_seconds_bucket{endpoint="/v1/ratio",le="+Inf"} 3
x_lat_seconds_sum{endpoint="/v1/ratio"} 4.00005
x_lat_seconds_count{endpoint="/v1/ratio"} 3
`
	if b.String() != want {
		t.Fatalf("got:\n%swant:\n%s", b.String(), want)
	}
}

func TestPromWriterEmptyHistogram(t *testing.T) {
	var b strings.Builder
	PromWriter{W: &b, Prefix: "x_"}.Histogram("age_seconds", NewHistogram([]float64{0.01, 1}))
	want := `x_age_seconds_bucket{le="0.01"} 0
x_age_seconds_bucket{le="1"} 0
x_age_seconds_bucket{le="+Inf"} 0
x_age_seconds_sum 0
x_age_seconds_count 0
`
	if b.String() != want {
		t.Fatalf("got:\n%swant:\n%s", b.String(), want)
	}
}

func TestPromWriterSamples(t *testing.T) {
	var b strings.Builder
	p := PromWriter{W: &b, Prefix: "x_"}
	p.Scalar("up", "gauge", "Up.", 1)
	p.Family("total", "counter", "Totals.")
	p.Sample("total", 3, "a", `say "hi"`, "b", `C:\tmp`)
	p.Sample("total", 4, "a", "é\n")
	want := `# HELP x_up Up.
# TYPE x_up gauge
x_up 1
# HELP x_total Totals.
# TYPE x_total counter
x_total{a="say \"hi\"",b="C:\\tmp"} 3
x_total{a="é\n"} 4
`
	if b.String() != want {
		t.Fatalf("got:\n%swant:\n%s", b.String(), want)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m, strings.Compare)
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("SortedKeys = %v", got)
	}
	if len(SortedKeys(map[string]int{}, strings.Compare)) != 0 {
		t.Fatal("keys of an empty map")
	}
}
