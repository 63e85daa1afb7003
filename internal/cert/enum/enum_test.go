package enum_test

import (
	"context"
	"math/big"
	"testing"
	"time"

	"repro/internal/cert/enum"
	"repro/internal/numeric"
	"repro/internal/scan"
)

func TestEnumerateCanonical(t *testing.T) {
	specs, err := enum.Enumerate(enum.Options{MinN: 3, MaxN: 4, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		k := sp.Key()
		if seen[k] {
			t.Fatalf("duplicate spec %s", k)
		}
		seen[k] = true
		// Reflection through vertex 0 must not produce a lexicographically
		// smaller tuple, and the gcd must be 1.
		w := sp.Weights
		n := len(w)
		for i := 1; i < n; i++ {
			if w[i] < w[n-i] {
				break
			}
			if w[i] > w[n-i] {
				t.Fatalf("%s is not the canonical representative of its reflection class", k)
			}
		}
	}
	// n=3, L=2: tuples (w0,w1,w2) with w1 ≤ w2 and gcd 1: enumerable by
	// hand — w0∈{1,2} × {(1,1),(1,2),(2,2)} minus gcd-2 tuple (2,2,2) = 5;
	// plus (1,2,2),(2,1,1),(2,1,2) → recount: the test pins the count to
	// guard against silent enumeration changes.
	three, err := enum.Enumerate(enum.Options{MinN: 3, MaxN: 3, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(three) != 5 {
		for _, sp := range three {
			t.Logf("  %s", sp.Key())
		}
		t.Fatalf("n=3 L=2 canonical count = %d, want 5", len(three))
	}
}

func TestEnumerateRejectsExplosiveOptions(t *testing.T) {
	if _, err := enum.Enumerate(enum.Options{MaxN: 11}); err == nil {
		t.Fatal("MaxN 11 accepted")
	}
	if _, err := enum.Enumerate(enum.Options{Levels: 7}); err == nil {
		t.Fatal("Levels 7 accepted")
	}
}

func TestRunSmall(t *testing.T) {
	start := time.Now()
	sc, err := enum.NewScan(enum.Options{MinN: 3, MaxN: 5, Levels: 3, Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := scan.Run(context.Background(), sc, scan.Options[enum.Outcome]{Workers: 2})
	if err != nil || r.Partial {
		t.Fatalf("run: %v (partial %v)", err, r != nil && r.Partial)
	}
	sum, err := enum.Summarize(r.Points, numeric.Zero)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n≤5 L=3: %d instances in %v, max ratio %s at %s, %d frontier",
		sum.Instances, time.Since(start), sum.MaxRatio, sum.MaxKey, len(sum.Frontier))
	if sum.Instances == 0 {
		t.Fatal("no instances enumerated")
	}
	if len(sum.Failures) != 0 {
		t.Fatalf("certificate failures: %+v", sum.Failures[0])
	}
	if sum.Certified != sum.Instances {
		t.Fatalf("certified %d of %d", sum.Certified, sum.Instances)
	}
	// The headline theorem, checked exhaustively: no enumerated ratio
	// exceeds 2.
	br, ok := new(big.Rat).SetString(sum.MaxRatio)
	if !ok {
		t.Fatalf("unparsable max ratio %q", sum.MaxRatio)
	}
	if numeric.Two.Less(numeric.FromBig(br)) {
		t.Fatalf("max ratio %s exceeds 2", sum.MaxRatio)
	}
}
