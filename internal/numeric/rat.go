// Package numeric provides exact rational arithmetic for the resource
// sharing library.
//
// All quantities in the bottleneck decomposition — vertex weights, α-ratios,
// flow capacities, allocations and utilities — are ratios of sums of input
// weights. Floating point is not safe there: the decomposition algorithm
// branches on exact comparisons (is α(S) < α(T)?, is the cut value exactly
// zero?) and a single misclassification changes the combinatorial structure.
// Rat therefore keeps an int64 numerator/denominator fast path and promotes
// transparently to math/big.Rat when an operation would overflow.
//
// Rat values are immutable; all operations return new values. The zero value
// of Rat is the number 0 and is ready to use.
package numeric

import (
	"fmt"
	"math"
	"math/big"
)

// Rat is an immutable exact rational number.
//
// Invariant (when b == nil and den != 0): den > 0 and gcd(|num|, den) == 1.
// The zero value (num == 0, den == 0, b == nil) denotes the number 0.
type Rat struct {
	num, den int64
	b        *big.Rat // overflow fallback; when non-nil, num/den are unused
}

// Common constants.
var (
	Zero = Rat{}
	One  = FromInt(1)
	Two  = FromInt(2)
)

// FromInt returns the rational n/1.
func FromInt(n int64) Rat {
	return Rat{num: n, den: 1}
}

// New returns the rational n/d. It panics if d == 0.
func New(n, d int64) Rat {
	if d == 0 {
		panic("numeric: zero denominator")
	}
	return makeRat(n, d)
}

// FromBig returns a Rat equal to br. The argument is copied.
func FromBig(br *big.Rat) Rat {
	return demote(new(big.Rat).Set(br))
}

// parts returns the int64 fast-path representation, fixing up the zero value.
// Callers must have checked r.b == nil.
func (r Rat) parts() (int64, int64) {
	if r.den == 0 {
		return 0, 1
	}
	return r.num, r.den
}

// isBig reports whether r is carried by the big fallback.
func (r Rat) isBig() bool { return r.b != nil }

// bigVal returns r as a freshly allocated big.Rat.
func (r Rat) bigVal() *big.Rat {
	if r.b != nil {
		return new(big.Rat).Set(r.b)
	}
	n, d := r.parts()
	return big.NewRat(n, d)
}

// makeRat normalizes n/d (d != 0) into a canonical Rat, promoting to big
// only for the two int64 values whose negation overflows.
func makeRat(n, d int64) Rat {
	if n == math.MinInt64 || d == math.MinInt64 {
		return demote(new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)))
	}
	if d < 0 {
		n, d = -n, -d
	}
	if n == 0 {
		return Rat{}
	}
	g := gcd64(abs64(n), d)
	return Rat{num: n / g, den: d / g}
}

// demote converts br to the int64 fast path when it fits. It takes ownership
// of br.
func demote(br *big.Rat) Rat {
	if br.Num().IsInt64() && br.Denom().IsInt64() {
		n, d := br.Num().Int64(), br.Denom().Int64()
		if n != math.MinInt64 && d != math.MinInt64 {
			// big.Rat is already normalized with positive denominator.
			if n == 0 {
				return Rat{}
			}
			return Rat{num: n, den: d}
		}
	}
	return Rat{b: br}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// add64 returns a+b and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	c := a + b
	if (a > 0 && b > 0 && c <= 0) || (a < 0 && b < 0 && c >= 0) {
		return 0, false
	}
	return c, true
}

// mul64 returns a*b and whether it did not overflow.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

// Num returns the normalized numerator as a big.Int.
func (r Rat) Num() *big.Int { return r.bigVal().Num() }

// Denom returns the normalized denominator as a big.Int.
func (r Rat) Denom() *big.Int { return r.bigVal().Denom() }

// BigParts sets num and den to the normalized numerator and denominator,
// reusing their storage.
func (r Rat) BigParts(num, den *big.Int) {
	if r.b != nil {
		num.Set(r.b.Num())
		den.Set(r.b.Denom())
		return
	}
	n, d := r.parts()
	num.SetInt64(n)
	den.SetInt64(d)
}

// Int64Parts returns the numerator and denominator when they fit in int64.
func (r Rat) Int64Parts() (num, den int64, ok bool) {
	if r.b != nil {
		if r.b.Num().IsInt64() && r.b.Denom().IsInt64() {
			return r.b.Num().Int64(), r.b.Denom().Int64(), true
		}
		return 0, 0, false
	}
	n, d := r.parts()
	return n, d, true
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	if r.b != nil {
		return r.b.Sign()
	}
	n, _ := r.parts()
	switch {
	case n > 0:
		return 1
	case n < 0:
		return -1
	}
	return 0
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Sign() == 0 }

// Float64 returns the nearest float64 to r.
func (r Rat) Float64() float64 {
	if r.b != nil {
		f, _ := r.b.Float64()
		return f
	}
	n, d := r.parts()
	return float64(n) / float64(d)
}

// String formats r as "n" for integers and "n/d" otherwise.
func (r Rat) String() string {
	if r.b != nil {
		if r.b.IsInt() {
			return r.b.Num().String()
		}
		return r.b.String()
	}
	n, d := r.parts()
	if d == 1 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%d/%d", n, d)
}
