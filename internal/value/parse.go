package value

import (
	"bytes"
	"strconv"
	"strings"
	"time"
)

// Parse infers the best kind for a text payload: empty → null, then bool,
// int, float, a handful of common timestamp layouts, else string. It is
// the platform's one inference rule for text — the CSV/TSV and XML
// codecs, the `constant` operator, range filters and the cube all type
// their cells through it.
//
// Parse does not allocate. strconv and time report a failed parse with a
// freshly allocated error, and a word such as "north" fails six parses
// before it settles on string, so each parser is only consulted once a
// shape check says the text can be of its kind; the shape checks accept
// a superset of what the parser accepts, which keeps the inference
// exactly strconv's and time's.
func Parse(s string) V {
	if v, ok := Infer(s); ok {
		return v
	}
	return NewString(s)
}

// Infer is Parse's rule for a string or for a field held as bytes (a
// slice of a payload): the typed cell and true, or false for text, which
// the caller stores itself, untrimmed as Parse keeps it. A field of up to
// 32 bytes allocates nothing: one whose shape passes reaches strconv or
// time as a string conversion that does not escape.
func Infer[T string | []byte](s T) (V, bool) {
	var t T // strings.TrimSpace(s), for either input
	if b, ok := any(s).([]byte); ok {
		t = T(bytes.TrimSpace(b))
	} else {
		t = T(strings.TrimSpace(string(s)))
	}
	if len(t) == 0 {
		return VNull, true
	}
	switch string(t) { // a conversion a switch does not allocate
	case "true", "True", "TRUE":
		return VTrue, true
	case "false", "False", "FALSE":
		return VFalse, true
	}
	if intShaped(t) {
		// Only a range error is left; the float parser takes those.
		if i, err := strconv.ParseInt(string(t), 10, 64); err == nil {
			return NewInt(i), true
		}
	}
	if floatShaped(t) {
		if f, err := strconv.ParseFloat(string(t), 64); err == nil {
			return NewFloat(f), true
		}
	}
	if ts, ok := parseTime(t); ok {
		return NewTime(ts), true
	}
	return V{}, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// intShaped reports whether t is an optional sign followed by decimal
// digits only — base-10 strconv.ParseInt's whole syntax.
func intShaped[T string | []byte](t T) bool {
	if t[0] == '+' || t[0] == '-' {
		t = t[1:]
	}
	for i := 0; i < len(t); i++ {
		if !isDigit(t[i]) {
			return false
		}
	}
	return len(t) > 0
}

// floatShaped reports whether strconv.ParseFloat can accept t: inf,
// infinity and nan in any case, a hexadecimal literal (left to strconv
// entirely), or sign, digits with at most one point, and an optional
// signed exponent. Underscores pass as digits; strconv judges their
// placement.
func floatShaped[T string | []byte](t T) bool {
	signed := t[0] == '+' || t[0] == '-'
	if signed {
		t = t[1:]
	}
	if len(t) == 0 {
		return false
	}
	switch t[0] { // converting at most 8 bytes allocates nothing
	case 'i', 'I':
		return len(t) <= 8 && (strings.EqualFold(string(t), "inf") || strings.EqualFold(string(t), "infinity"))
	case 'n', 'N':
		return !signed && len(t) <= 8 && strings.EqualFold(string(t), "nan")
	}
	if len(t) > 2 && t[0] == '0' && t[1]|0x20 == 'x' {
		return true
	}
	digits := func() (n int) {
		for len(t) > 0 && (isDigit(t[0]) || t[0] == '_') {
			if t[0] != '_' {
				n++
			}
			t = t[1:]
		}
		return n
	}
	n := digits()
	if len(t) > 0 && t[0] == '.' {
		t = t[1:]
		n += digits()
	}
	if n == 0 {
		return false
	}
	if len(t) > 0 && t[0]|0x20 == 'e' {
		t = t[1:]
		if len(t) > 0 && (t[0] == '+' || t[0] == '-') {
			t = t[1:]
		}
		if digits() == 0 {
			return false
		}
	}
	return len(t) == 0
}

// timeLayouts are the timestamp layouts Parse recognizes, most specific
// first. The list is closed: parseTime's shape check relies on every
// layout opening with the ten characters of "2006-01-02".
var timeLayouts = [...]string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
}

// parseTime tries the layouts that can match t's shape, in timeLayouts
// order. Everything that is not dddd-dd-dd at the front is rejected
// before time.Parse is reached; the character after the date then
// selects the layouts worth trying ('T' the two RFC 3339 forms, a space
// the space-separated form, nothing the bare date).
func parseTime[T string | []byte](t T) (time.Time, bool) {
	if len(t) < 10 || t[4] != '-' || t[7] != '-' {
		return time.Time{}, false
	}
	for _, i := range [...]int{0, 1, 2, 3, 5, 6, 8, 9} {
		if !isDigit(t[i]) {
			return time.Time{}, false
		}
	}
	var layouts []string
	switch {
	case len(t) == 10:
		layouts = timeLayouts[3:]
	case t[10] == 'T':
		layouts = timeLayouts[:2]
	case t[10] == ' ':
		layouts = timeLayouts[2:3]
	}
	for _, layout := range layouts {
		if ts, err := time.Parse(layout, string(t)); err == nil {
			return ts, true
		}
	}
	return time.Time{}, false
}
