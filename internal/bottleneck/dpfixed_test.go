package bottleneck

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// fuzzInt decodes one biased int64 from a selector byte and eight raw
// bytes, leaning toward the magnitudes where fixed-width arithmetic breaks:
// 1, 2^31±1, 2^62, 2^63−1 and the 2^48 scale of bisection dust.
func fuzzInt(sel byte, raw int64) int64 {
	switch sel % 8 {
	case 1:
		return 1
	case 2:
		return 1<<31 - 1 + raw%3 // 2^31−1 ± 1 … 2^31+1
	case 3:
		return 1<<62 + raw%3
	case 4:
		return math.MaxInt64 - raw%4
	case 5:
		return 1 << 48
	case 6:
		return raw % (1 << 48) // a dust numerator k of k/2^48
	case 7:
		return raw % 100
	}
	return raw
}

// freshPlan builds c's fixed-width plan at λ in a buffer of its own.
func freshPlan(c dpComponent, lambda numeric.Rat) (fixedPlan, bool) {
	return c.fixedPlanFor(lambda, make([]numeric.Int128, 4*len(c.ws)))
}

// fuzzReader hands out biased int64s from fuzz data, 9 bytes each, and 1
// once the data runs out.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next() int64 {
	if len(r.data) < 9 {
		return 1
	}
	v := fuzzInt(r.data[0], int64(binary.LittleEndian.Uint64(r.data[1:9])))
	r.data = r.data[9:]
	return v
}

// rat reads a numerator/denominator pair; nonNeg folds the sign away (graph
// weights are never negative). A numerator whose selector byte has its top
// bit set multiplies the pair by the next one, so parts can pass int64.
func (r *fuzzReader) rat(nonNeg bool) numeric.Rat {
	wide := len(r.data) > 0 && r.data[0]&0x80 != 0
	x := r.pair(nonNeg)
	if wide {
		x = x.Mul(r.pair(nonNeg))
	}
	return x
}

func (r *fuzzReader) pair(nonNeg bool) numeric.Rat {
	n, d := r.next(), r.next()
	if d == 0 {
		d = 1
	}
	if nonNeg {
		if n == math.MinInt64 {
			n = math.MaxInt64
		}
		if n < 0 {
			n = -n
		}
		if d < 0 && d != math.MinInt64 {
			d = -d
		}
	}
	if d == math.MinInt64 {
		d = math.MaxInt64
	}
	return numeric.New(n, d)
}

// fuzzInput encodes a component and λ the way the fuzzer decodes them, with
// every value raw (selector 0).
func fuzzInput(cycle bool, lambda [2]int64, ws ...[2]int64) []byte {
	out := fuzzHead(cycle, len(ws))
	for _, pair := range append([][2]int64{lambda}, ws...) {
		out = appendFuzzInt(out, 0, pair[0])
		out = appendFuzzInt(out, 0, pair[1])
	}
	return out
}

// wideRat is the value n1/d1 · n2/d2 of fuzzInputWide.
type wideRat [4]int64

// fuzzInputWide is fuzzInput with every value a product of two pairs, raw,
// so that λ and the weights may have parts past int64 (x·1/1 keeps x).
func fuzzInputWide(cycle bool, lambda wideRat, ws ...wideRat) []byte {
	out := fuzzHead(cycle, len(ws))
	for _, v := range append([]wideRat{lambda}, ws...) {
		out = appendFuzzInt(out, 0x80, v[0])
		for _, x := range v[1:] {
			out = appendFuzzInt(out, 0, x)
		}
	}
	return out
}

func fuzzHead(cycle bool, m int) []byte {
	head := byte(m - 3)
	if cycle {
		head |= 0x80
	}
	return []byte{head}
}

func appendFuzzInt(out []byte, sel byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(append(out, sel), uint64(v))
}

// admissionEdge returns a path whose bound (|p|+q)·Σn_i with λ = (2^62−1)/1
// is 2^126 − 2^62 (below the constant) or exactly 2^126 (at it).
func admissionEdge(above bool) ([2]int64, [][2]int64) {
	last := int64(1<<62 - 1)
	if above {
		last = 1 << 62
	}
	return [2]int64{1<<62 - 1, 1}, [][2]int64{{1 << 62, 1}, {1 << 62, 1}, {1 << 62, 1}, {last, 1}}
}

// FuzzFixedWidthDP referees the fixed-width plan — and, where its bound
// rejects an input, the big.Int plan — against the Rat passes of
// dpref_test.go on paths and cycles of 3–12 vertices. Both the value pass
// and the membership pass must match bit for bit. A path is also read as a
// split path [w1, interior…, w2], and valueFull (the integer combination
// with the interior transfer, or the whole-path pass) must match the Rat
// value pass of the whole path. The seeds cover both sides of the 2^126
// bound on int64 parts, and the band scaled in math/big: λ or weight parts
// past int64 under the bound, and q·D just below and just past 2^126.
func FuzzFixedWidthDP(f *testing.F) {
	for _, above := range []bool{false, true} {
		lam, ws := admissionEdge(above)
		f.Add(fuzzInput(false, lam, ws...))
		f.Add(fuzzInput(true, lam, ws...))
	}
	f.Add(fuzzInput(false, [2]int64{3, 7}, [2]int64{1, 1}, [2]int64{5, 2}, [2]int64{2, 1}, [2]int64{7, 3}))
	f.Add(fuzzInput(true, [2]int64{1<<48 - 3, 1 << 48}, [2]int64{1<<48 + 5, 1 << 48}, [2]int64{9, 1}, [2]int64{1<<31 + 1, 1}))
	f.Add(fuzzInput(false, [2]int64{math.MaxInt64, math.MaxInt64 - 1}, [2]int64{math.MaxInt64, 3}, [2]int64{1, 1 << 48}, [2]int64{1 << 62, 1}))
	f.Add(fuzzInput(false, [2]int64{-5, 3}, [2]int64{0, 1}, [2]int64{1<<31 - 1, 1<<31 + 1}, [2]int64{4, 1}))
	wideLambda := wideRat{1<<62 + 1, 1<<62 + 3, 1<<40 + 1, 1<<40 + 7}
	smallWs := []wideRat{{3, 1, 1, 1}, {5, 2, 1, 1}, {7, 1, 1, 1}, {2, 1, 1, 1}}
	wideWs := []wideRat{{1<<62 + 1, 1, 3, 1}, {5, 1, 1, 1}, {1<<62 + 5, 1, 2, 1}}
	for _, cycle := range []bool{false, true} {
		f.Add(fuzzInputWide(cycle, wideLambda, smallWs...))
		f.Add(fuzzInputWide(cycle, wideRat{2, 7, 1, 1}, wideWs...))
		for _, q := range []int64{4, 5} { // q·D just below, then past 2^126
			f.Add(fuzzInput(cycle, [2]int64{1, q}, [2]int64{1, 1<<62 - 57}, [2]int64{1, 1<<62 - 87}, [2]int64{2, 1<<62 - 57}))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cycle := data[0]&0x80 != 0
		m := 3 + int(data[0]&0x7f)%10
		r := &fuzzReader{data: data[1:]}
		lambda := r.rat(false)
		ws := make([]numeric.Rat, m)
		for i := range ws {
			ws[i] = r.rat(true)
		}
		c := dpComponent{order: iota0(m), ws: ws, cycle: cycle}
		checkPlansAgainstRat(t, c, lambda)
		if !cycle {
			checkValueFullAgainstRat(t, ws, lambda)
		}
	})
}

// checkPlansAgainstRat runs the plan dp.go would pick for (c, λ) and
// compares its value and membership passes with the Rat reference.
func checkPlansAgainstRat(t *testing.T, c dpComponent, lambda numeric.Rat) {
	t.Helper()
	sel := c.selCosts(lambda)
	var wantVal costW
	var wantMin numeric.Rat
	var wantMem []bool
	if c.cycle {
		wantVal = c.cycleValue(sel)
		wantMin, wantMem = c.cycleMembership(lambda)
	} else {
		wantVal = c.pathValue(sel)
		wantMin, wantMem = c.pathMembership(lambda)
	}
	var gotVal costW
	var gotMin numeric.Rat
	var gotMem []bool
	fp, fixed := freshPlan(c, lambda)
	switch {
	case fixed && c.cycle:
		gotVal = c.cycleValueFixed(&fp)
		var v numeric.Int128
		v, gotMem = c.cycleMembershipFixed(&fp, new(dpScratch))
		gotMin = fp.costRat(v)
	case fixed:
		gotVal = c.pathValueFixed(&fp)
		var v numeric.Int128
		v, gotMem = c.pathMembershipFixed(&fp, new(dpScratch))
		gotMin = fp.costRat(v)
	case c.cycle:
		bp := c.bigPlanFor(lambda)
		gotVal = c.cycleValueBig(bp)
		gotMin, gotMem = c.cycleMembershipBig(bp)
	default:
		bp := c.bigPlanFor(lambda)
		gotVal = c.pathValueBig(bp)
		gotMin, gotMem = c.pathMembershipBig(bp)
	}
	if !gotVal.cost.Equal(wantVal.cost) || !gotVal.wS.Equal(wantVal.wS) {
		t.Fatalf("fixed=%v cycle=%v λ=%v w=%v: value (%v, %v) != Rat (%v, %v)",
			fixed, c.cycle, lambda, c.ws, gotVal.cost, gotVal.wS, wantVal.cost, wantVal.wS)
	}
	if !gotMin.Equal(wantMin) {
		t.Fatalf("fixed=%v cycle=%v λ=%v w=%v: membership min %v != Rat %v",
			fixed, c.cycle, lambda, c.ws, gotMin, wantMin)
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			t.Fatalf("fixed=%v cycle=%v λ=%v w=%v: member[%d] = %v != Rat %v",
				fixed, c.cycle, lambda, c.ws, i, gotMem[i], wantMem[i])
		}
	}
}

// checkValueFullAgainstRat reads the path ws as [w1, interior…, w2] and
// checks valueFull against the Rat value pass over the whole path. It
// reports whether the interior had a transfer at λ and whether valueFull
// ran the whole-path pass; interiors with a zero weight, which the split
// solver never combines, are skipped.
func checkValueFullAgainstRat(t *testing.T, ws []numeric.Rat, lambda numeric.Rat) (fixedTransfer, whole bool) {
	t.Helper()
	m := len(ws)
	s := NewSplitSolver(ws[1 : m-1])
	if !s.ok {
		return false, false
	}
	tr := s.buildTransfer(lambda, new(dpScratch))
	full := dpComponent{order: iota0(m), ws: ws}
	want := full.pathValue(full.selCosts(lambda))
	var tally arithTally
	val, wS := s.valueFull(tr, lambda, ws[0], ws[m-1], new(dpScratch), &tally)
	fixedTransfer, whole = tr != nil, tally.wholePaths == 1
	if !val.Equal(want.cost) || !wS.Equal(want.wS) {
		t.Fatalf("λ=%v w=%v: valueFull (whole path=%v, fixed transfer=%v) = (%v, %v), Rat pass (%v, %v)",
			lambda, ws, whole, fixedTransfer, val, wS, want.cost, want.wS)
	}
	if !fixedTransfer && !whole {
		t.Fatalf("λ=%v w=%v: no transfer, yet no whole-path pass", lambda, ws)
	}
	if plans := tally.fixedPlans + tally.bigPlans; plans != tally.wholePaths {
		t.Fatalf("λ=%v w=%v: tally %+v, want one plan per whole-path pass", lambda, ws, tally)
	}
	return fixedTransfer, whole
}

// TestFixedPlanAdmissionBound pins the admission constant from both sides:
// a bound of 2^126 − 2^62 is admitted and exact, a bound of exactly 2^126
// goes to the big.Int plan, and both match the Rat reference.
func TestFixedPlanAdmissionBound(t *testing.T) {
	for _, above := range []bool{false, true} {
		lam, pairs := admissionEdge(above)
		lambda := numeric.New(lam[0], lam[1])
		ws := make([]numeric.Rat, len(pairs))
		for i, p := range pairs {
			ws[i] = numeric.New(p[0], p[1])
		}
		for _, cycle := range []bool{false, true} {
			c := dpComponent{order: iota0(len(ws)), ws: ws, cycle: cycle}
			pl, ok := freshPlan(c, lambda)
			if ok == above {
				t.Fatalf("above=%v cycle=%v: admitted=%v", above, cycle, ok)
			}
			if ok {
				want := new(big.Int).Lsh(big.NewInt(1), numeric.FixedBits)
				want.Sub(want, new(big.Int).Lsh(big.NewInt(1), 62))
				if pl.bound.BigInt().Cmp(want) != 0 {
					t.Fatalf("bound %v, want 2^126 − 2^62", pl.bound.BigInt())
				}
			}
			checkPlansAgainstRat(t, c, lambda)
		}
	}
}

// TestValueFullCombinations drives every branch of valueFull on random
// split paths and on pinned shapes — an integer combination, fixed-width
// transfers whose endpoint sums the integer combination rejects, and an
// interior past the fixed-width bound, which has no transfer — each
// refereed against the Rat value pass.
func TestValueFullCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	seen := map[[2]bool]int{}
	for trial := 0; trial < 300; trial++ {
		m := rng.Intn(8) + 3
		ws := make([]numeric.Rat, m)
		for i := range ws {
			ws[i] = numeric.New(int64(rng.Intn(40)+1), int64(rng.Intn(6)+1))
		}
		if rng.Intn(2) == 0 { // bisection dust on the endpoints
			dust := numeric.New(int64(rng.Intn(1<<20)+1), 1<<48)
			ws[0], ws[m-1] = ws[0].Add(dust), ws[m-1].Sub(dust.Mul(numeric.New(1, 1<<10)))
		}
		lambda := numeric.New(int64(rng.Intn(99)+1), 100)
		fixed, whole := checkValueFullAgainstRat(t, ws, lambda)
		seen[[2]bool{fixed, whole}]++
	}
	one := numeric.One
	cases := []struct {
		name         string
		ws           []numeric.Rat
		lambda       numeric.Rat
		fixed, whole bool
	}{
		{"integer", []numeric.Rat{one, numeric.FromInt(3), numeric.FromInt(2), numeric.New(5, 2)}, numeric.New(2, 3), true, false},
		{"endpoint sums past 2^125", []numeric.Rat{numeric.New(1, 1<<62), numeric.FromInt(1 << 40), numeric.FromInt(1 << 40), numeric.New(3, 1<<62)},
			numeric.New(1<<40, 1<<40+1), true, true},
		{"common denominator past int64", []numeric.Rat{numeric.New(1, math.MaxInt64), numeric.FromInt(2), numeric.FromInt(5), numeric.New(1, math.MaxInt64-2)},
			numeric.New(2, 7), true, true},
		{"no transfer", []numeric.Rat{one, numeric.New(1, 1<<40), numeric.New(1, 1<<40+1), one}, numeric.New(1, 3), false, true},
	}
	for _, tc := range cases {
		fixed, whole := checkValueFullAgainstRat(t, tc.ws, tc.lambda)
		if fixed != tc.fixed || whole != tc.whole {
			t.Fatalf("%s: fixed transfer=%v whole path=%v, want %v/%v", tc.name, fixed, whole, tc.fixed, tc.whole)
		}
	}
	if seen[[2]bool{true, false}] == 0 {
		t.Fatalf("random trials never combined in integers: %v", seen)
	}
}
