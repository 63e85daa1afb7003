package numeric

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var z Rat
	if !z.IsZero() {
		t.Fatalf("zero value is not zero: %v", z)
	}
	if got := z.Add(FromInt(3)); !got.Equal(FromInt(3)) {
		t.Fatalf("0 + 3 = %v", got)
	}
	if got := z.Mul(FromInt(3)); !got.IsZero() {
		t.Fatalf("0 * 3 = %v", got)
	}
	if z.String() != "0" {
		t.Fatalf("zero String = %q", z.String())
	}
	if z.Sign() != 0 {
		t.Fatalf("zero Sign = %d", z.Sign())
	}
}

func TestNewNormalization(t *testing.T) {
	cases := []struct {
		n, d int64
		want string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-2, 4, "-1/2"},
		{2, -4, "-1/2"},
		{-2, -4, "1/2"},
		{0, 5, "0"},
		{0, -5, "0"},
		{6, 3, "2"},
		{7, 1, "7"},
		{-7, 1, "-7"},
		{math.MaxInt64, math.MaxInt64, "1"},
	}
	for _, c := range cases {
		got := New(c.n, c.d)
		if got.String() != c.want {
			t.Errorf("New(%d, %d) = %q, want %q", c.n, c.d, got.String(), c.want)
		}
	}
}

// TestStringMatchesSprintf checks String's strconv formatting byte for byte
// against fmt.Sprintf of the exact value's parts, on the int64 path (zero,
// ±1, ±(2^63−1), math.MinInt64 as an integer, integers and fractions) and
// on the big path (values past int64), which String leaves to math/big.
func TestStringMatchesSprintf(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	cases := []struct {
		r   Rat
		big bool
	}{
		{Zero, false},
		{One, false},
		{FromInt(-1), false},
		{FromInt(math.MaxInt64), false},
		{FromInt(-math.MaxInt64), false},
		{FromInt(math.MinInt64), false},
		{FromInt(42), false},
		{FromInt(-1000000007), false},
		{New(1, 2), false},
		{New(-3, 7), false},
		{New(1, math.MaxInt64), false},
		{New(-1, math.MaxInt64), false},
		{New(math.MaxInt64, math.MaxInt64-1), false},
		{New(-math.MaxInt64, math.MaxInt64-1), false},
		{New(math.MinInt64, 3), true},
		{FromBig(new(big.Rat).SetInt(huge)), true},
		{FromBig(new(big.Rat).SetInt(new(big.Int).Neg(huge))), true},
		{FromBig(new(big.Rat).SetFrac(huge, big.NewInt(3))), true},
		{FromBig(new(big.Rat).SetFrac(big.NewInt(-5), huge)), true},
	}
	for _, c := range cases {
		if c.r.isBig() != c.big {
			t.Fatalf("%v: big path %v, want %v", c.r.bigVal(), c.r.isBig(), c.big)
		}
		br := c.r.bigVal()
		want := fmt.Sprintf("%d/%d", br.Num(), br.Denom())
		if br.IsInt() {
			want = fmt.Sprintf("%d", br.Num())
		}
		if got := c.r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestNewPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestMinInt64Promotion(t *testing.T) {
	r := New(math.MinInt64, 3)
	want := new(big.Rat).SetFrac(big.NewInt(math.MinInt64), big.NewInt(3))
	if r.bigVal().Cmp(want) != 0 {
		t.Fatalf("New(MinInt64,3) = %v, want %v", r, want)
	}
	r2 := New(3, math.MinInt64)
	want2 := new(big.Rat).SetFrac(big.NewInt(3), big.NewInt(math.MinInt64))
	if r2.bigVal().Cmp(want2) != 0 {
		t.Fatalf("New(3,MinInt64) = %v, want %v", r2, want2)
	}
}

func TestBasicArithmetic(t *testing.T) {
	a := New(1, 3)
	b := New(1, 6)
	if got := a.Add(b); got.String() != "1/2" {
		t.Errorf("1/3 + 1/6 = %v", got)
	}
	if got := a.Sub(b); got.String() != "1/6" {
		t.Errorf("1/3 - 1/6 = %v", got)
	}
	if got := a.Mul(b); got.String() != "1/18" {
		t.Errorf("1/3 * 1/6 = %v", got)
	}
	if got := a.Div(b); got.String() != "2" {
		t.Errorf("(1/3) / (1/6) = %v", got)
	}
	if got := a.Neg(); got.String() != "-1/3" {
		t.Errorf("-(1/3) = %v", got)
	}
	if got := a.Inv(); got.String() != "3" {
		t.Errorf("inv(1/3) = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	Zero.Inv()
}

func TestCmpAndOrdering(t *testing.T) {
	vals := []Rat{New(-3, 2), New(-1, 1), Zero, New(1, 3), New(1, 2), One, Two}
	for i := range vals {
		for j := range vals {
			got := vals[i].Cmp(vals[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Cmp(%v, %v) = %d, want %d", vals[i], vals[j], got, want)
			}
			if vals[i].Less(vals[j]) != (want < 0) {
				t.Errorf("Less(%v, %v) inconsistent", vals[i], vals[j])
			}
			if vals[i].LessEq(vals[j]) != (want <= 0) {
				t.Errorf("LessEq(%v, %v) inconsistent", vals[i], vals[j])
			}
		}
	}
}

func TestMinMaxAbs(t *testing.T) {
	a, b := New(-1, 2), New(1, 3)
	if got := a.Min(b); !got.Equal(a) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); !got.Equal(b) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Abs(); !got.Equal(New(1, 2)) {
		t.Errorf("Abs = %v", got)
	}
	if got := b.Abs(); !got.Equal(b) {
		t.Errorf("Abs of positive changed: %v", got)
	}
}

func TestOverflowFallbackMatchesBig(t *testing.T) {
	huge := New(math.MaxInt64, 1)
	tiny := New(1, math.MaxInt64)
	// MaxInt64 + MaxInt64 overflows int64.
	sum := huge.Add(huge)
	wantSum := new(big.Rat).Add(huge.bigVal(), huge.bigVal())
	if sum.bigVal().Cmp(wantSum) != 0 {
		t.Fatalf("huge+huge = %v, want %v", sum, wantSum)
	}
	// MaxInt64 * MaxInt64 overflows int64.
	prod := huge.Mul(huge)
	wantProd := new(big.Rat).Mul(huge.bigVal(), huge.bigVal())
	if prod.bigVal().Cmp(wantProd) != 0 {
		t.Fatalf("huge*huge = %v, want %v", prod, wantProd)
	}
	// Mixing magnitudes round-trips exactly.
	x := huge.Mul(tiny)
	if !x.Equal(One) {
		t.Fatalf("MaxInt64 * 1/MaxInt64 = %v, want 1", x)
	}
	// Demotion: big values that cancel return to the fast path.
	y := prod.Div(huge)
	if y.isBig() {
		t.Fatalf("(%v)/(%v) should demote to int64 path", prod, huge)
	}
	if !y.Equal(huge) {
		t.Fatalf("huge*huge/huge = %v, want %v", y, huge)
	}
}

func TestCmpOverflowPath(t *testing.T) {
	a := New(math.MaxInt64, 3)
	b := New(math.MaxInt64-1, 3)
	if a.Cmp(b) != 1 || b.Cmp(a) != -1 || a.Cmp(a) != 0 {
		t.Fatalf("Cmp near overflow wrong: a.Cmp(b)=%d", a.Cmp(b))
	}
}

func TestCmp128BitCrossProducts(t *testing.T) {
	// Cross products here exceed int64 but stay exact in the 128-bit fast
	// path; verify against the big.Rat oracle on adversarial neighbors.
	const M = math.MaxInt64
	cases := [][2]Rat{
		{New(M-1, M), New(M-2, M-1)},
		{New(M, M-1), New(M-1, M-2)},
		{New(-(M - 1), M), New(-(M - 2), M-1)},
		{New(M, 2), New(M-1, 2)},
		{New(1, M), New(1, M-1)},
		{New(-M, M-1), New(M, M-1)},
		{New(M, M), New(M-1, M-1)}, // both normalize to 1
	}
	for _, c := range cases {
		want := c[0].bigVal().Cmp(c[1].bigVal())
		if got := c[0].Cmp(c[1]); got != want {
			t.Errorf("Cmp(%v, %v) = %d, oracle %d", c[0], c[1], got, want)
		}
		if got := c[1].Cmp(c[0]); got != -want {
			t.Errorf("Cmp(%v, %v) = %d, oracle %d", c[1], c[0], got, -want)
		}
	}
}

func TestFloat64(t *testing.T) {
	if got := New(1, 2).Float64(); got != 0.5 {
		t.Errorf("Float64(1/2) = %v", got)
	}
	if got := New(-3, 4).Float64(); got != -0.75 {
		t.Errorf("Float64(-3/4) = %v", got)
	}
}

func TestMulIntDivInt(t *testing.T) {
	r := New(3, 4)
	if got := r.MulInt(8); !got.Equal(FromInt(6)) {
		t.Errorf("3/4 * 8 = %v", got)
	}
	if got := r.DivInt(3); !got.Equal(New(1, 4)) {
		t.Errorf("3/4 / 3 = %v", got)
	}
}

// ratOracle converts to big.Rat for oracle comparisons in quick tests.
func ratOracle(n, d int64) (*big.Rat, bool) {
	if d == 0 {
		return nil, false
	}
	return new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)), true
}

func TestQuickAddMatchesBigOracle(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		oa, ok := ratOracle(an, ad)
		if !ok {
			return true
		}
		ob, ok := ratOracle(bn, bd)
		if !ok {
			return true
		}
		got := makeRat(an, ad).Add(makeRat(bn, bd))
		want := new(big.Rat).Add(oa, ob)
		return got.bigVal().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulMatchesBigOracle(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		oa, ok := ratOracle(an, ad)
		if !ok {
			return true
		}
		ob, ok := ratOracle(bn, bd)
		if !ok {
			return true
		}
		got := makeRat(an, ad).Mul(makeRat(bn, bd))
		want := new(big.Rat).Mul(oa, ob)
		return got.bigVal().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpMatchesBigOracle(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		oa, ok := ratOracle(an, ad)
		if !ok {
			return true
		}
		ob, ok := ratOracle(bn, bd)
		if !ok {
			return true
		}
		return makeRat(an, ad).Cmp(makeRat(bn, bd)) == oa.Cmp(ob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFieldAxioms(t *testing.T) {
	// Small operands keep everything on the fast path; axioms must hold
	// regardless of representation.
	mk := func(n int8, d int8) Rat {
		if d == 0 {
			d = 1
		}
		return New(int64(n), int64(d))
	}
	comm := func(an, ad, bn, bd int8) bool {
		a, b := mk(an, ad), mk(bn, bd)
		return a.Add(b).Equal(b.Add(a)) && a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	assoc := func(an, ad, bn, bd, cn, cd int8) bool {
		a, b, c := mk(an, ad), mk(bn, bd), mk(cn, cd)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c))) &&
			a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distr := func(an, ad, bn, bd, cn, cd int8) bool {
		a, b, c := mk(an, ad), mk(bn, bd), mk(cn, cd)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(distr, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	inverse := func(an, ad int8) bool {
		a := mk(an, ad)
		if a.IsZero() {
			return a.Add(a.Neg()).IsZero()
		}
		return a.Add(a.Neg()).IsZero() && a.Mul(a.Inv()).Equal(One)
	}
	if err := quick.Check(inverse, nil); err != nil {
		t.Errorf("inverses: %v", err)
	}
}

func TestQuickNormalizationInvariant(t *testing.T) {
	f := func(n, d int64) bool {
		if d == 0 {
			return true
		}
		r := makeRat(n, d)
		if r.b != nil {
			return true // big path has its own invariant
		}
		num, den := r.parts()
		if den <= 0 {
			return false
		}
		return gcd64(abs64(num), den) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
