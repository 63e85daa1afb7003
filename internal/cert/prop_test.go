package cert_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

// The property the checker must have: it accepts every certificate the
// builder produces from a correct solver answer, and it rejects every
// mutation of such a certificate — a perturbed cover, a doctored witness, a
// truncated inequality chain. Acceptance is exercised on random instances;
// rejection through a catalogue of targeted mutations applied to freshly
// built certificates.

func deepCopy[T any](t *testing.T, c *T) *T {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustFail(t *testing.T, name string, c cert.Checkable) {
	t.Helper()
	if err := cert.Check(c); err == nil {
		t.Fatalf("mutation %q: checker accepted a corrupted certificate", name)
	}
}

func buildRatioCert(t *testing.T, ws []int64, v int) (*cert.RatioCert, *core.Instance) {
	t.Helper()
	ctx := context.Background()
	g := ringOf(ws)
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: 12})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := build.Ratio(ctx, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(rc); err != nil {
		t.Fatalf("pristine certificate rejected: %v", err)
	}
	return rc, in
}

func ringOf(ws []int64) *graph.Graph {
	rs := make([]numeric.Rat, len(ws))
	for i, w := range ws {
		rs[i] = numeric.FromInt(w)
	}
	return graph.Ring(rs)
}

func TestPropertyRandomInstancesCertify(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	done := 0
	for done < 30 {
		n := 3 + rng.Intn(6)
		g := graph.RandomRing(rng, n, graph.DistUniform)
		v := rng.Intn(n)
		in, err := core.NewInstanceCtx(ctx, g, v)
		if err != nil {
			continue
		}
		opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: 8})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := build.Ratio(ctx, in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.Check(rc); err != nil {
			t.Fatalf("random instance %d (n=%d v=%d): %v", done, n, v, err)
		}
		done++
	}
}

func TestMutatedDecompositionCertsFail(t *testing.T) {
	rc, _ := buildRatioCert(t, []int64{3, 1, 2, 1, 5}, 0)
	base := &rc.Ring

	t.Run("schema", func(t *testing.T) {
		m := deepCopy(t, base)
		m.Schema = "bd-cert/v0"
		mustFail(t, "schema", m)
	})
	t.Run("alpha_perturbed", func(t *testing.T) {
		m := deepCopy(t, base)
		m.Pairs[0].Alpha = "1/9999"
		mustFail(t, "alpha_perturbed", m)
	})
	t.Run("pair_dropped", func(t *testing.T) {
		m := deepCopy(t, base)
		if len(m.Pairs) < 2 {
			t.Skip("single-pair cover")
		}
		m.Pairs = m.Pairs[:len(m.Pairs)-1]
		mustFail(t, "pair_dropped", m)
	})
	t.Run("bc_swapped", func(t *testing.T) {
		m := deepCopy(t, base)
		for i := range m.Pairs {
			if len(m.Pairs[i].B) != len(m.Pairs[i].C) || m.Pairs[i].B[0] != m.Pairs[i].C[0] {
				m.Pairs[i].B, m.Pairs[i].C = m.Pairs[i].C, m.Pairs[i].B
				mustFail(t, "bc_swapped", m)
				return
			}
		}
		t.Skip("only self-pairs")
	})
	t.Run("witness_truncated", func(t *testing.T) {
		m := deepCopy(t, base)
		for i := range m.Pairs {
			if len(m.Pairs[i].Witness) > 0 {
				m.Pairs[i].Witness = m.Pairs[i].Witness[:len(m.Pairs[i].Witness)-1]
				mustFail(t, "witness_truncated", m)
				return
			}
		}
		t.Skip("no nonzero witnesses")
	})
	t.Run("witness_flow_perturbed", func(t *testing.T) {
		m := deepCopy(t, base)
		for i := range m.Pairs {
			if len(m.Pairs[i].Witness) > 0 {
				m.Pairs[i].Witness[0].Flow = "1000000"
				mustFail(t, "witness_flow_perturbed", m)
				return
			}
		}
		t.Skip("no nonzero witnesses")
	})
	t.Run("utility_perturbed", func(t *testing.T) {
		m := deepCopy(t, base)
		m.Utilities[0] = "424242"
		mustFail(t, "utility_perturbed", m)
	})
	t.Run("weight_perturbed", func(t *testing.T) {
		m := deepCopy(t, base)
		m.Instance.Weights[1] = "999"
		mustFail(t, "weight_perturbed", m)
	})
	t.Run("noncanonical_rational", func(t *testing.T) {
		m := deepCopy(t, base)
		// Same value, non-canonical spelling: textual identity must break.
		m.Instance.Weights[0] = m.Instance.Weights[0] + "/1"
		if !strings.Contains(m.Instance.Weights[0], "//") {
			mustFail(t, "noncanonical_rational", m)
		}
	})
	t.Run("vertex_uncovered", func(t *testing.T) {
		m := deepCopy(t, base)
		for i := range m.Pairs {
			if len(m.Pairs[i].C) > 0 && !intsEqual(m.Pairs[i].B, m.Pairs[i].C) {
				m.Pairs[i].C = m.Pairs[i].C[:len(m.Pairs[i].C)-1]
				mustFail(t, "vertex_uncovered", m)
				return
			}
		}
		t.Skip("no non-self C sets")
	})
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMutatedRatioCertsFail(t *testing.T) {
	rc, _ := buildRatioCert(t, []int64{3, 1, 2, 1, 5}, 0)

	t.Run("ratio_doubled", func(t *testing.T) {
		m := deepCopy(t, rc)
		m.Ratio = "2"
		if m.Ratio == rc.Ratio {
			t.Skip("ratio already 2")
		}
		mustFail(t, "ratio_doubled", m)
	})
	t.Run("honest_bumped", func(t *testing.T) {
		m := deepCopy(t, rc)
		m.Honest = "123456"
		mustFail(t, "honest_bumped", m)
	})
	t.Run("best_u_lowered", func(t *testing.T) {
		m := deepCopy(t, rc)
		m.Best.U = "0"
		if m.Best.U == rc.Best.U {
			t.Skip("best already zero")
		}
		mustFail(t, "best_u_lowered", m)
	})
	t.Run("leq_two_cleared", func(t *testing.T) {
		m := deepCopy(t, rc)
		m.LeqTwo = false
		mustFail(t, "leq_two_cleared", m)
	})
	t.Run("chain_truncated_pieces", func(t *testing.T) {
		m := deepCopy(t, rc)
		if len(m.Pieces) == 0 {
			t.Skip("no pieces")
		}
		m.Pieces = m.Pieces[:len(m.Pieces)-1]
		mustFail(t, "chain_truncated_pieces", m)
	})
	t.Run("boundary_dropped", func(t *testing.T) {
		m := deepCopy(t, rc)
		if len(m.Boundary) == 0 {
			t.Skip("no boundary brackets")
		}
		m.Boundary = m.Boundary[:len(m.Boundary)-1]
		mustFail(t, "boundary_dropped", m)
	})
	t.Run("formula_forged", func(t *testing.T) {
		m := deepCopy(t, rc)
		for i := range m.Pieces {
			if m.Pieces[i].FormulaExact {
				m.Pieces[i].Num[0] = "77777"
				mustFail(t, "formula_forged", m)
				return
			}
		}
		t.Skip("no exact formulas")
	})
	t.Run("piece_best_outside", func(t *testing.T) {
		m := deepCopy(t, rc)
		if len(m.Pieces) < 2 {
			t.Skip("need two pieces")
		}
		m.Pieces[0].Best, m.Pieces[1].Best = m.Pieces[1].Best, m.Pieces[0].Best
		mustFail(t, "piece_best_outside", m)
	})
}

func TestMutatedSweepCertsFail(t *testing.T) {
	ctx := context.Background()
	g := ringOf([]int64{3, 1, 2, 1, 5})
	in, err := core.NewInstanceCtx(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sybil.RingSweepCtx(ctx, in.G, in.V, sybil.SweepOptions{Grid: 8})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := build.Sweep(ctx, in, res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(sc); err != nil {
		t.Fatalf("pristine sweep certificate rejected: %v", err)
	}

	t.Run("best_index_shifted", func(t *testing.T) {
		m := deepCopy(t, sc)
		m.BestIndex = (m.BestIndex + 1) % len(m.Points)
		mustFail(t, "best_index_shifted", m)
	})
	t.Run("point_dropped", func(t *testing.T) {
		// Dropping the LAST point yields a valid shorter partial sweep (the
		// certificate's coverage is [Start, Start+len)), so corrupt the
		// interior instead: removing a middle point shifts every later
		// point off its grid position.
		m := deepCopy(t, sc)
		mid := len(m.Points) / 2
		m.Points = append(m.Points[:mid], m.Points[mid+1:]...)
		if m.BestIndex >= len(m.Points) {
			m.BestIndex = 0
		}
		mustFail(t, "point_dropped", m)
	})
	t.Run("grid_changed", func(t *testing.T) {
		m := deepCopy(t, sc)
		m.Grid++
		mustFail(t, "grid_changed", m)
	})
	t.Run("points_swapped", func(t *testing.T) {
		m := deepCopy(t, sc)
		m.Points[0], m.Points[1] = m.Points[1], m.Points[0]
		mustFail(t, "points_swapped", m)
	})
	t.Run("ratio_perturbed", func(t *testing.T) {
		m := deepCopy(t, sc)
		m.Ratio = "3/2"
		if m.Ratio == sc.Ratio {
			m.Ratio = "4/3"
		}
		mustFail(t, "ratio_perturbed", m)
	})
	t.Run("split_path_weights_dropped", func(t *testing.T) {
		// The path's vertex count still matches; a checker that trusted it
		// would index the missing weights (a fuzz-found panic).
		m := deepCopy(t, sc)
		m.Points[0].Path.Instance.Weights = nil
		mustFail(t, "split_path_weights_dropped", m)
	})
}

// TestSolverFreeCheck pins the package contract structurally: a certificate
// decoded from bytes alone must verify, proving the checker needs no solver
// state. (That internal/cert imports no solver package is enforced by the
// compiler — see the import list of check.go.)
func TestSolverFreeCheck(t *testing.T) {
	rc, _ := buildRatioCert(t, []int64{1, 2, 3, 4}, 2)
	b, err := json.Marshal(rc)
	if err != nil {
		t.Fatal(err)
	}
	fresh := new(cert.RatioCert)
	if err := json.Unmarshal(b, fresh); err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(fresh); err != nil {
		t.Fatal(err)
	}
	// The decomposition certificate also re-checks standalone.
	db, err := json.Marshal(&rc.Ring)
	if err != nil {
		t.Fatal(err)
	}
	dc := new(cert.DecompositionCert)
	if err := json.Unmarshal(db, dc); err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(dc); err != nil {
		t.Fatal(err)
	}
}

// leaf is one string or int field of a certificate value, addressed by
// field and element indices from its root.
type leaf struct {
	path []int
	name string
}

// leavesOf lists every string and int field reachable from v through
// struct fields and slice or array elements.
func leavesOf(v reflect.Value, path []int, name string, out *[]leaf) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leavesOf(v.Field(i), append(path[:len(path):len(path)], i), name+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leavesOf(v.Index(i), append(path[:len(path):len(path)], i), fmt.Sprintf("%s[%d]", name, i), out)
		}
	default:
		*out = append(*out, leaf{path: path, name: name})
	}
}

// forge changes the leaf at l under v: a rational string becomes its
// successor (still canonical), any other string gains a suffix, and an int
// grows by one.
func forge(t *testing.T, v reflect.Value, l leaf) {
	t.Helper()
	for _, i := range l.path {
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	switch v.Kind() {
	case reflect.String:
		if r, ok := new(big.Rat).SetString(v.String()); ok {
			v.SetString(r.Add(r, big.NewRat(1, 1)).RatString())
		} else {
			v.SetString(v.String() + "x")
		}
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	default:
		t.Fatalf("%s: cannot forge a %s", l.name, v.Kind())
	}
}

// TestDuplicateSplitForgeries covers the checker's rule for repeated
// splits: a split equal to one already verified at the same w1 is accepted
// as it, so forging any single field of only the later copy — the piece
// best that repeats the best split, and the boundary evaluation that
// repeats a piece best on a piece end — must make the certificate fail.
func TestDuplicateSplitForgeries(t *testing.T) {
	rc, _ := buildRatioCert(t, []int64{3, 1, 2, 1, 5}, 2)
	piece, pieceB, bound := -1, -1, -1
	for i := range rc.Pieces {
		if piece < 0 && reflect.DeepEqual(rc.Pieces[i].Best, rc.Best) {
			piece = i
		}
		for j := range rc.Boundary {
			if bound < 0 && reflect.DeepEqual(rc.Pieces[i].Best, rc.Boundary[j]) {
				pieceB, bound = i, j
			}
		}
	}
	if piece < 0 || bound < 0 {
		t.Fatalf("certificate lacks the repeated splits (best = piece %d, piece %d = boundary %d)", piece, pieceB, bound)
	}
	cases := []struct {
		name  string
		later func(*cert.RatioCert) *cert.SplitCert
	}{
		{fmt.Sprintf("piece_%d_repeats_best", piece), func(c *cert.RatioCert) *cert.SplitCert { return &c.Pieces[piece].Best }},
		{fmt.Sprintf("boundary_%d_repeats_piece_%d", bound, pieceB), func(c *cert.RatioCert) *cert.SplitCert { return &c.Boundary[bound] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := cert.Check(deepCopy(t, rc)); err != nil {
				t.Fatalf("decoded certificate rejected: %v", err)
			}
			var leaves []leaf
			leavesOf(reflect.ValueOf(c.later(rc)).Elem(), nil, "split", &leaves)
			if len(leaves) < 40 {
				t.Fatalf("only %d leaves in the repeated split", len(leaves))
			}
			for _, l := range leaves {
				m := deepCopy(t, rc)
				forge(t, reflect.ValueOf(c.later(m)).Elem(), l)
				mustFail(t, c.name+" "+l.name, m)
			}
		})
	}
}
