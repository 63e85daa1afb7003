package numeric

import (
	"math"
	"math/big"
	"testing"
)

// TestI128Arithmetic checks the 128-bit helpers against math/big at the
// edges of their ranges.
func TestI128Arithmetic(t *testing.T) {
	vals := []int64{0, 1, -1, 2, math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62), 1<<31 + 1}
	for _, x := range vals {
		for _, y := range vals {
			a := Int128Of(x).Mul(1 << 40).Add(Int128Of(y))
			want := new(big.Int).Mul(big.NewInt(x), big.NewInt(1<<40))
			want.Add(want, big.NewInt(y))
			if a.BigInt().Cmp(want) != 0 {
				t.Fatalf("%d·2^40 + %d = %v, want %v", x, y, a.BigInt(), want)
			}
			if got := a.Neg().BigInt(); got.Cmp(new(big.Int).Neg(want)) != 0 {
				t.Fatalf("neg(%v) = %v", want, got)
			}
			if got, w := a.Sub(Int128Of(x)).BigInt(), new(big.Int).Sub(want, big.NewInt(x)); got.Cmp(w) != 0 {
				t.Fatalf("%v − %d = %v, want %v", want, x, got, w)
			}
			if got := a.Sign(); got != want.Sign() {
				t.Fatalf("sign(%v) = %d", want, got)
			}
			prod := Int128Of(x).MulInt(y)
			if got, w := prod.BigInt(), new(big.Int).Mul(big.NewInt(x), big.NewInt(y)); got.Cmp(w) != 0 {
				t.Fatalf("%d·%d = %v, want %v", x, y, got, w)
			}
			if got, w := Int128Of(x).Mul128(Int128Of(y)).BigInt(), new(big.Int).Mul(big.NewInt(x), big.NewInt(y)); got.Cmp(w) != 0 {
				t.Fatalf("%d·%d = %v (Mul128), want %v", x, y, got, w)
			}
			// a·b with |a| < 2^104 and |b| < 2^23 fits, whatever the signs.
			b := Int128Of(y >> 41)
			if got, w := a.Mul128(b).BigInt(), new(big.Int).Mul(want, big.NewInt(y>>41)); got.Cmp(w) != 0 {
				t.Fatalf("%v·%d = %v (Mul128), want %v", want, y>>41, got, w)
			}
			if got, w := Int128Of(x).Less(Int128Of(y)), x < y; got != w {
				t.Fatalf("%d < %d = %v", x, y, got)
			}
			if n, ok := a.Int64(); ok != want.IsInt64() || (ok && n != want.Int64()) {
				t.Fatalf("int64(%v) = %d, %v", want, n, ok)
			}
		}
	}
	// MulBelow: 2^63·2^62 = 2^125 is below 2^126 but not below 2^125, and a
	// product past 2^128 is rejected at any limit.
	top := Int128Of(1).Mul(1 << 63)
	if _, ok := top.MulBelow(1<<62, FixedBits); !ok {
		t.Fatal("2^125 rejected below 2^126")
	}
	if _, ok := top.MulBelow(1<<62, 125); ok {
		t.Fatal("2^125 admitted below 2^125")
	}
	if _, ok := (Int128{hi: 1 << 63}).MulBelow(2, 127); ok {
		t.Fatal("2^128 admitted")
	}
	if _, ok := LcmInt64(math.MaxInt64, math.MaxInt64-1); ok {
		t.Fatal("lcm past int64 admitted")
	}
	if l, ok := LcmInt64(4, 6); !ok || l != 12 {
		t.Fatalf("lcm(4, 6) = %d, %v", l, ok)
	}
}

// TestFromInt128 checks the conversion back to a canonical Rat on the int64
// fast path, through the big.Rat normalization, and at MinInt64.
func TestFromInt128(t *testing.T) {
	big2 := Int128Of(1).Mul(1 << 63).Mul(4) // 2^65
	cases := []struct {
		num, den Int128
		want     Rat
	}{
		{Int128{}, Int128Of(7), Zero},
		{Int128Of(6), Int128Of(4), New(3, 2)},
		{Int128Of(-6), Int128Of(4), New(-3, 2)},
		{Int128Of(math.MinInt64), Int128Of(2), FromInt(math.MinInt64 / 2)},
		{big2, big2.Mul(3), New(1, 3)},
		{big2, Int128Of(3), FromBig(new(big.Rat).SetFrac(big2.BigInt(), big.NewInt(3)))},
	}
	for _, c := range cases {
		got := FromInt128(c.num, c.den)
		if !got.Equal(c.want) || got.String() != c.want.String() || got.isBig() != c.want.isBig() {
			t.Fatalf("FromInt128(%v, %v) = %v (big=%v), want %v (big=%v)", c.num.BigInt(), c.den.BigInt(), got, got.isBig(), c.want, c.want.isBig())
		}
	}
}

// TestInt128OfBig checks the conversion from math/big at both ends of the
// signed 128-bit range and its rejection past them.
func TestInt128OfBig(t *testing.T) {
	one := big.NewInt(1)
	top := new(big.Int).Sub(new(big.Int).Lsh(one, 127), one) // 2^127 − 1
	for _, x := range []*big.Int{
		big.NewInt(0), big.NewInt(-5), big.NewInt(math.MaxInt64), big.NewInt(math.MinInt64),
		new(big.Int).Lsh(one, 100), new(big.Int).Neg(new(big.Int).Lsh(one, 100)), top, new(big.Int).Neg(top),
	} {
		a, ok := Int128OfBig(x)
		if !ok || a.BigInt().Cmp(x) != 0 {
			t.Fatalf("Int128OfBig(%v) = %v, %v", x, a.BigInt(), ok)
		}
	}
	for _, x := range []*big.Int{new(big.Int).Lsh(one, 127), new(big.Int).Neg(new(big.Int).Lsh(one, 127))} {
		if _, ok := Int128OfBig(x); ok {
			t.Fatalf("Int128OfBig(%v) admitted", x)
		}
	}
}

// TestBigParts checks that BigParts reads the normalized parts on both
// representations into reused storage.
func TestBigParts(t *testing.T) {
	var num, den big.Int
	huge := FromBig(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3)))
	for _, r := range []Rat{Zero, New(-6, 4), FromInt(math.MaxInt64), huge} {
		r.BigParts(&num, &den)
		if got := new(big.Rat).SetFrac(&num, &den); got.Cmp(r.bigVal()) != 0 || num.Cmp(r.Num()) != 0 || den.Cmp(r.Denom()) != 0 {
			t.Fatalf("BigParts(%v) = %v/%v", r, &num, &den)
		}
	}
}
