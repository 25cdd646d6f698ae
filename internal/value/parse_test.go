package value

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceParse is Parse as it was before the shape checks: strconv and
// time decide everything, each failed attempt costing an allocated
// error. It stays as the oracle the allocation-free Parse is fuzzed
// against.
func referenceParse(s string) V {
	t := strings.TrimSpace(s)
	if t == "" {
		return VNull
	}
	switch t {
	case "true", "True", "TRUE":
		return VTrue
	case "false", "False", "FALSE":
		return VFalse
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return NewFloat(f)
	}
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		if ts, err := time.Parse(layout, t); err == nil {
			return NewTime(ts)
		}
	}
	return NewString(s)
}

var parseSeeds = []string{
	"", " ", "\t\n", "true", "True", "TRUE", "tRUE", "false", "False", "FALSE", " true ",
	"0", "-0", "+0", "7", "-7", "+7", " 42 ", "007", "123456789012345678", "9223372036854775807",
	"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "99999999999999999999",
	"+", "-", "+-1", "1-", "1+1", "--1", "1_000", "_1", "1_", "1__0", "0b101", "0o17",
	"12.5", "-12.5", ".5", "5.", ".", "-.5", "+.5e3", "1e3", "1E3", "1e+3", "1e-3", "1e", "1e+", "e3", "1e3.5",
	"1.2.3", "1..2", "1e999", "-1e999", "1e-999", "4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308",
	"1_0.5", "1.5_0", "1e1_0", "1_e3",
	"inf", "Inf", "INF", "+inf", "-inf", "infinity", "-Infinity", "infin", "infinit", "infinityx", "in",
	"nan", "NaN", "NAN", "+nan", "-nan", "nanx", "na", "n", "i",
	"0x1p-2", "0X1P+2", "0x1.8p1", "-0x1p0", "0x", "0x1", "0xg", "0x1p", "0x_1p0", "0x1_0p0", "x1p0",
	"2024-01-05", "2024-1-5", "2024-13-05", "2024-02-30", "0000-01-01", "9999-12-31", "12024-01-05",
	"2024-01-05x", "2024-01-05 ", " 2024-01-05", "2024/01/05", "2024-01-05-", "２０２４-01-05",
	"2024-01-05 10:00:00", "2024-01-05  10:00:00", "2024-01-05 10:00", "2024-01-05 10:00:00.5",
	"2024-01-05 10:00:00Z", "2024-01-05 24:00:00", "2024-01-05 1:00:00", "2024-01-05\t10:00:00",
	"2024-01-05T10:00:00Z", "2024-01-05t10:00:00z", "2024-01-05T10:00:00", "2024-01-05T10:00:00+05:30",
	"2024-01-05T10:00:00.123456789Z", "2024-01-05T10:00:00,5Z", "2024-01-05T10:00:00.Z",
	"2024-01-05T10:00:00-00:00", "2024-01-05T10:00:60Z", "2024-01-05T10:00:00+24:00", "2024-01-05T1:00:00Z",
	"2024-01-05T10:00:00Zjunk", "2024-01-05T", "2024-01-05T10",
	"north", "r3", "p17", "web", "null", "none", "Infinite loop", "nano", "e", "E5", ".e5", "1 2", "１２", "1\x002",
	" 1 ", " 1", "\xff", "a,b", "\"q\"",
}

func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Parse(s), referenceParse(s)
		// Kind and payload, not Equal: "1" and 1 compare equal, and NaN
		// never does.
		if got != want {
			t.Fatalf("Parse(%q) = %v %#x %q, reference %v %#x %q", s,
				got.kind, got.num, got.str, want.kind, want.num, want.str)
		}
		// The bytes entry types what Parse types and leaves text, untrimmed,
		// to its caller.
		if typed, ok := Infer([]byte(s)); ok != (want.kind != String) || ok && typed != want || !ok && want.str != s {
			t.Fatalf("Infer(%q) = %v %#x %v, Parse %v %#x %q", s, typed.kind, typed.num, ok, want.kind, want.num, want.str)
		}
	})
}

// TestParseAllocs pins the property the decoders are built on: typing a
// cell costs no allocation, whatever it turns out to be — from a string,
// or from a payload's bytes up to 32 of them.
func TestParseAllocs(t *testing.T) {
	for _, s := range []string{"north", "r3", "123", "-7", "12.5", "1e3", "2024-01-05",
		"2024-01-05 10:00:00", "2024-01-05T10:00:00Z", "2024-01-05T10:00:00.25Z", "true", "FALSE", "", "  web  ", "inf", "nano",
		" \u00a01.7976931348623157e308\u2029", "2024-01-05T10:00:00.123456789Z", "a longer run of text past 32 bytes"} {
		var sink V
		if n := testing.AllocsPerRun(100, func() { sink = Parse(s) }); n != 0 {
			t.Errorf("Parse(%q) allocates %v times per call, want 0", s, n)
		}
		if want := referenceParse(s); sink != want {
			t.Errorf("Parse(%q) = %v, reference %v", s, sink, want)
		}
		b := []byte(s)
		var ok bool
		if n := testing.AllocsPerRun(100, func() { sink, ok = Infer(b) }); n != 0 && len(b) <= 32 {
			t.Errorf("Infer(%q) allocates %v times per call, want 0", s, n)
		}
		if want := Parse(s); ok != (want.Kind() != String) || ok && sink != want {
			t.Errorf("Infer(%q) = %v %v, Parse %v", s, sink, ok, want)
		}
	}
}
