package cert

import (
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// TestParseRatLiterals: a canonical literal parses to its value; a
// non-canonical one is rejected with its canonical form as the hint, both
// halves of a fraction read in base 10 (a leading zero does not make a half
// octal); anything else, a zero denominator included, is malformed.
func TestParseRatLiterals(t *testing.T) {
	for _, c := range []struct{ in, value, hint string }{
		{in: "7/2", value: "7/2"},
		{in: "-3", value: "-3"},
		{in: "0", value: "0"},
		{in: "010/3", hint: "10/3"},
		{in: "1/010", hint: "1/10"},
		{in: "08/3", hint: "8/3"},
		{in: "010", hint: "10"},
		{in: "-0", hint: "0"},
		{in: "4/2", hint: "2"},
		{in: "3/1", hint: "3"},
		{in: "1/0"},
		{in: "0/0"},
		{in: "1/"},
		{in: "/2"},
		{in: "1/-2"},
		{in: "+1"},
		{in: "1e3"},
		{in: "0x10"},
		{in: "1.5"},
		{in: ""},
	} {
		r, err := parseRat(c.in)
		switch {
		case c.value != "":
			if err != nil || r.RatString() != c.value {
				t.Errorf("parseRat(%q) = %v, %v; want %s", c.in, r, err, c.value)
			}
		case c.hint != "":
			if err == nil || !strings.Contains(err.Error(), `non-canonical`) ||
				!strings.Contains(err.Error(), `(canonical form "`+c.hint+`")`) {
				t.Errorf("parseRat(%q) error %v; want non-canonical with hint %s", c.in, err, c.hint)
			}
		default:
			if err == nil || strings.Contains(err.Error(), "non-canonical") {
				t.Errorf("parseRat(%q) error %v; want it rejected as malformed", c.in, err)
			}
		}
	}
}

// parseRatByRender is the canonicality rule parseRat replaced, kept as its
// referee: a literal is canonical exactly when re-rendering the parsed value
// with RatString reproduces it byte for byte.
func parseRatByRender(s string) (*big.Rat, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("cert: empty rational literal")
	}
	if len(s) > maxRatLen {
		return nil, fmt.Errorf("cert: rational literal of %d bytes exceeds limit %d", len(s), maxRatLen)
	}
	num, den := s, "1"
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, den = s[:i], s[i+1:]
	}
	if !validInt(num, true) || !validInt(den, false) || strings.Trim(den, "0") == "" {
		return nil, fmt.Errorf("cert: malformed rational literal %q", s)
	}
	n, _ := new(big.Int).SetString(num, 10)
	d, _ := new(big.Int).SetString(den, 10)
	r := new(big.Rat).SetFrac(n, d)
	if r.RatString() != s {
		return nil, fmt.Errorf("cert: non-canonical rational literal %q (canonical form %q)", s, r.RatString())
	}
	return r, nil
}

// requireParseRatMatchesRender requires parseRat and the render rule to
// accept the same value or reject with the same error text.
func requireParseRatMatchesRender(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseRat(s)
	want, wantErr := parseRatByRender(s)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("parseRat(%q) = %v, %v; render rule %v, %v", s, got, gotErr, want, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("parseRat(%q) error %q; render rule %q", s, gotErr, wantErr)
	case gotErr == nil && got.Cmp(want) != 0:
		t.Fatalf("parseRat(%q) = %v; render rule %v", s, got, want)
	}
}

// TestParseRatMatchesRenderRule runs both rules over every literal of up to
// four characters from the alphabet that matters, plus longer ones with
// large and reducible parts.
func TestParseRatMatchesRenderRule(t *testing.T) {
	alphabet := []string{"0", "1", "2", "4", "-", "/"}
	var walk func(prefix string, left int)
	walk = func(prefix string, left int) {
		requireParseRatMatchesRender(t, prefix)
		if left == 0 {
			return
		}
		for _, c := range alphabet {
			walk(prefix+c, left-1)
		}
	}
	walk("", 4)
	for _, s := range []string{
		"18446744073709551616/3", "18446744073709551616/18446744073709551618", "-36893488147419103232/36893488147419103231",
		"0/18446744073709551617", "-0/7", "00/1", "1/01", "12/18", "-12/1", "170141183460469231731687303715884105727",
		strings.Repeat("9", maxRatLen), strings.Repeat("9", maxRatLen+1),
	} {
		requireParseRatMatchesRender(t, s)
	}
}

// FuzzParseRat compares parseRat with the render rule on arbitrary
// literals: the same accepted values, the same error texts.
func FuzzParseRat(f *testing.F) {
	for _, s := range []string{"7/2", "-3", "0", "-0", "010/3", "1/010", "4/2", "3/1", "1/0", "0/5", "-0/5", "1e3", "18446744073709551616/2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		requireParseRatMatchesRender(t, s)
	})
}
