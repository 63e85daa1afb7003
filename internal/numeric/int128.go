package numeric

import (
	"math"
	"math/big"
	"math/bits"
)

// Fixed-width integers for the exact kernels.
//
// The path DP (internal/bottleneck) and the max-flow (internal/maxflow) both
// scale an instance's rationals to integers over a common denominator and run
// on Int128 cells when every value they can form is provably small: each
// kernel admits an instance only when its bound is below 2^FixedBits, so a
// sum of two admitted values still fits a signed 128-bit integer and cell
// adds need no overflow checks. Only results are converted back to a
// canonical Rat (FromInt128).

// FixedBits is the admission bound of the fixed-width kernels: every value a
// kernel forms is below 2^FixedBits in magnitude.
const FixedBits = 126

// Int128 is a 128-bit two's-complement integer. Add, Sub, Neg, Mul and
// MulInt wrap modulo 2^128, which is the exact result whenever that result
// fits — and the kernels' admission bounds guarantee it does for every value
// they form.
type Int128 struct{ hi, lo uint64 }

// Int128Of returns x as an Int128.
func Int128Of(x int64) Int128 { return Int128{hi: uint64(x >> 63), lo: uint64(x)} }

// Add returns a+b modulo 2^128.
func (a Int128) Add(b Int128) Int128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return Int128{hi: hi, lo: lo}
}

// Sub returns a−b modulo 2^128.
func (a Int128) Sub(b Int128) Int128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return Int128{hi: hi, lo: lo}
}

// Neg returns −a modulo 2^128.
func (a Int128) Neg() Int128 { return Int128{}.Sub(a) }

// IsNeg reports whether a < 0.
func (a Int128) IsNeg() bool { return int64(a.hi) < 0 }

// Sign returns -1, 0 or +1 according to the sign of a.
func (a Int128) Sign() int {
	switch {
	case a.IsNeg():
		return -1
	case a == Int128{}:
		return 0
	}
	return 1
}

// Less reports whether a < b.
func (a Int128) Less(b Int128) bool {
	if a.hi != b.hi {
		return int64(a.hi) < int64(b.hi)
	}
	return a.lo < b.lo
}

// Mul returns a·b modulo 2^128.
func (a Int128) Mul(b uint64) Int128 {
	hi, lo := bits.Mul64(a.lo, b)
	return Int128{hi: hi + a.hi*b, lo: lo}
}

// MulInt returns a·b modulo 2^128 for a signed factor.
func (a Int128) MulInt(b int64) Int128 {
	if b < 0 {
		return a.Mul(AbsU64(b)).Neg()
	}
	return a.Mul(uint64(b))
}

// Abs returns |a|; a must not be −2^127.
func (a Int128) Abs() Int128 {
	if a.IsNeg() {
		return a.Neg()
	}
	return a
}

// MulBelow returns a·b for a non-negative a when the product is below
// 2^limit (64 < limit ≤ 127), and ok=false otherwise. It is the checked
// multiply of the admission tests.
func (a Int128) MulBelow(b uint64, limit uint) (Int128, bool) {
	h1, lo := bits.Mul64(a.lo, b)
	h2, mid := bits.Mul64(a.hi, b)
	hi, carry := bits.Add64(mid, h1, 0)
	if h2 != 0 || carry != 0 || hi>>(limit-64) != 0 {
		return Int128{}, false
	}
	return Int128{hi: hi, lo: lo}, true
}

// Int64 returns a as an int64 when it fits.
func (a Int128) Int64() (int64, bool) {
	return int64(a.lo), a.hi == uint64(int64(a.lo)>>63)
}

// BigInt returns a as a freshly allocated big.Int.
func (a Int128) BigInt() *big.Int {
	m := a.Abs()
	z := new(big.Int).SetUint64(m.hi)
	z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(m.lo))
	if a.IsNeg() {
		z.Neg(z)
	}
	return z
}

// AbsU64 returns |x| as a uint64 (exact for every int64, MinInt64 included).
func AbsU64(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// FromInt128 returns num/den (den > 0) as a canonical Rat: on the int64 fast
// path when both fit, through one big.Rat normalization otherwise.
func FromInt128(num, den Int128) Rat {
	if num == (Int128{}) {
		return Zero
	}
	if n, ok := num.Int64(); ok {
		if d, ok := den.Int64(); ok {
			return New(n, d)
		}
	}
	return demote(new(big.Rat).SetFrac(num.BigInt(), den.BigInt()))
}

// LcmInt64 returns lcm(a, b) for positive a, b, or ok=false past int64.
func LcmInt64(a, b int64) (int64, bool) {
	f := b / gcd64(a, b)
	if a > math.MaxInt64/f {
		return 0, false
	}
	return a * f, true
}
