package cert

import (
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
