package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseGraph throws arbitrary bytes at the text-format parser. Accepted
// inputs must survive a Write/Read round trip unchanged; nothing may panic
// or allocate unboundedly. This target surfaced the unbounded n-line
// pre-allocation (now capped by maxReadVertices) and the exponent blowup in
// numeric.Parse reachable through w lines.
func FuzzParseGraph(f *testing.F) {
	f.Add("n 3\nw 0 1\nw 1 2\nw 2 3\ne 0 1\ne 1 2\ne 2 0\n")
	f.Add("n 1\nw 0 1/3\n")
	f.Add("# comment\nn 2\nw 0 0.5\nw 1 2.25\ne 0 1\n")
	f.Add("n 0\n")
	f.Add("n 4\nw 0 1e3\nw 1 10/4\ne 0 3\ne 1 2\n")
	f.Add("n 99999999999\n")
	f.Add("n 2\nw 0 1e999999999\n")
	f.Add("e 0 1\nn 2\n")
	f.Add("n 2\ne 0 0\n")
	f.Add("x 1 2\n")
	// Near-tight frontier rings from the exhaustive small-n certification
	// (irshare enumerate at eps 3/5): the weight patterns that drive the
	// incentive ratio toward the bound 2 are exactly the ones whose
	// mutations are worth exploring.
	f.Add("n 5\nw 0 2\nw 1 1\nw 2 1\nw 3 3\nw 4 1\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
	f.Add("n 5\nw 0 3\nw 1 1\nw 2 3\nw 3 1\nw 4 2\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read of written form: %v\nwritten:\n%s", err, buf.String())
		}
		if g2.N() != g.N() {
			t.Fatalf("round trip changed n: %d -> %d", g.N(), g2.N())
		}
		for v := 0; v < g.N(); v++ {
			if !g.Weight(v).Equal(g2.Weight(v)) {
				t.Fatalf("round trip changed weight of %d: %v -> %v", v, g.Weight(v), g2.Weight(v))
			}
		}
		e1, e2 := g.Edges(), g2.Edges()
		if len(e1) != len(e2) {
			t.Fatalf("round trip changed edge count: %d -> %d", len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, e1[i], e2[i])
			}
		}
	})
}
