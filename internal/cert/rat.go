package cert

import (
	"fmt"
	"math/big"
	"strings"
)

// maxRatLen bounds one rational literal inside a certificate. Canonical
// forms of every quantity the solvers produce are far shorter; the limit
// exists so a hostile certificate cannot smuggle an outsized big.Int parse
// (or big.Rat's scientific notation, which this parser rejects outright)
// into the checker.
const maxRatLen = 4096

// parseRat parses a canonical rational literal: an optional leading '-',
// then decimal digits, then optionally '/' and a positive decimal
// denominator. Unlike big.Rat.SetString it accepts no exponents, no decimal
// points and no whitespace, and it additionally requires the literal to be
// canonical — the literal RatString renders for the parsed value: lowest
// terms, no leading zeros, no "-0", denominator omitted when 1.
// Canonicality is what makes certificate identity textual: two
// certificates describe the same numbers iff their bytes agree. It is
// decided from the literal and the parsed value, without rendering the
// value back (rat_test.go keeps that rule as the referee).
func parseRat(s string) (*big.Rat, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("cert: empty rational literal")
	}
	if len(s) > maxRatLen {
		return nil, fmt.Errorf("cert: rational literal of %d bytes exceeds limit %d", len(s), maxRatLen)
	}
	num, den := s, ""
	slash := strings.IndexByte(s, '/')
	if slash >= 0 {
		num, den = s[:slash], s[slash+1:]
	}
	if !validInt(num, true) || slash >= 0 && (!validInt(den, false) || strings.Trim(den, "0") == "") {
		return nil, fmt.Errorf("cert: malformed rational literal %q", s)
	}
	// Both halves, checked above, are read in base 10: big.Rat's SetString
	// would read a fraction's leading-zero half as octal.
	n, _ := new(big.Int).SetString(num, 10)
	r := new(big.Rat).SetInt(n)
	digits := strings.TrimPrefix(num, "-")
	canonical := digits[0] != '0' || num == "0" // no leading zero, no "-0"
	if slash >= 0 {
		d, _ := new(big.Int).SetString(den, 10)
		r.SetFrac(n, d)
		// In lowest terms the denominator survives normalization; it is
		// written only when above 1, and without a leading zero.
		canonical = canonical && den[0] != '0' && r.Denom().Cmp(d) == 0 && !r.IsInt()
	}
	if !canonical {
		return nil, fmt.Errorf("cert: non-canonical rational literal %q (canonical form %q)", s, r.RatString())
	}
	return r, nil
}

// validInt reports whether s is a plain decimal integer (optionally signed
// when neg is true). It intentionally over-accepts non-canonical forms like
// leading zeros — parseRat's canonicality test rejects those — and exists
// only to keep signs, exponents and decimals away from big.Int.
func validInt(s string, neg bool) bool {
	if neg && strings.HasPrefix(s, "-") {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseNonNeg is parseRat restricted to values ≥ 0.
func parseNonNeg(s string) (*big.Rat, error) {
	r, err := parseRat(s)
	if err != nil {
		return nil, err
	}
	if r.Sign() < 0 {
		return nil, fmt.Errorf("cert: negative value %q where a non-negative one is required", s)
	}
	return r, nil
}

// ratStr renders r canonically ("n" or "n/d"), the inverse of parseRat.
func ratStr(r *big.Rat) string { return r.RatString() }

// Common constants for the checker's comparisons.
var (
	ratZero = new(big.Rat)
	ratOne  = big.NewRat(1, 1)
	ratTwo  = big.NewRat(2, 1)
)
