// Package value defines the dynamic value type that flows through every
// ShareInsights data pipeline.
//
// A data object (see internal/table) is a relation whose cells are values
// of type V. V is a small tagged union over the payload kinds the
// platform's connectors can produce — null, bool, int, float, string and
// time — with a total ordering, coercion rules and a stable hash so the
// same value semantics apply in both execution contexts (the batch engine
// and the data cube).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic type of a V.
type Kind uint8

// The value kinds, in coercion order: when two values of different
// numeric kinds meet, the comparison is performed in the wider kind.
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
	Time
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V is a dynamically typed value. The zero value is Null.
//
// The representation packs every kind into one int64 plus one string so
// that rows stay compact: bools are 0/1, floats are IEEE bits, times are
// nanoseconds since the Unix epoch (UTC).
type V struct {
	kind Kind
	num  int64
	str  string
}

// Convenient, frequently used values.
var (
	// VNull is the null value.
	VNull = V{}
	// VTrue and VFalse are the boolean constants.
	VTrue  = V{kind: Bool, num: 1}
	VFalse = V{kind: Bool}
)

// NewBool returns a boolean value.
func NewBool(b bool) V {
	if b {
		return VTrue
	}
	return VFalse
}

// NewInt returns an integer value.
func NewInt(i int64) V { return V{kind: Int, num: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) V { return V{kind: Float, num: int64(math.Float64bits(f))} }

// NewString returns a string value.
func NewString(s string) V { return V{kind: String, str: s} }

// NewTime returns a time value. The location is normalized to UTC; the
// platform treats timestamps as instants.
func NewTime(t time.Time) V { return V{kind: Time, num: t.UTC().UnixNano()} }

// Kind reports the dynamic kind of v.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v V) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload. It is false unless v is a true Bool.
func (v V) Bool() bool { return v.kind == Bool && v.num != 0 }

// Int returns the value as an int64, coercing floats (truncating),
// bools (0/1), times (unix nanoseconds) and numeric strings. Null and
// non-numeric strings yield 0.
func (v V) Int() int64 {
	switch v.kind {
	case Int, Bool, Time:
		return v.num
	case Float:
		return int64(math.Float64frombits(uint64(v.num)))
	case String:
		if i, err := strconv.ParseInt(strings.TrimSpace(v.str), 10, 64); err == nil {
			return i
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.str), 64); err == nil {
			return int64(f)
		}
	}
	return 0
}

// Float returns the value as a float64 using the same coercions as Int.
func (v V) Float() float64 {
	switch v.kind {
	case Int, Bool:
		return float64(v.num)
	case Float:
		return math.Float64frombits(uint64(v.num))
	case Time:
		return float64(v.num)
	case String:
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.str), 64); err == nil {
			return f
		}
	}
	return 0
}

// Str returns the string payload for String values and the display form
// for everything else.
func (v V) Str() string {
	if v.kind == String {
		return v.str
	}
	return v.String()
}

// Time returns the time payload, or the zero time for non-Time values.
func (v V) Time() time.Time {
	if v.kind != Time {
		return time.Time{}
	}
	return time.Unix(0, v.num).UTC()
}

// Truthy reports whether the value is "true" in a filter context: true
// bools, non-zero numbers, non-empty strings and non-null times.
func (v V) Truthy() bool {
	switch v.kind {
	case Null:
		return false
	case Bool:
		return v.num != 0
	case Int:
		return v.num != 0
	case Float:
		return v.Float() != 0
	case String:
		return v.str != ""
	case Time:
		return true
	}
	return false
}

// String renders the value for display: the data explorer, CSV/JSON
// serialization of endpoint data and error messages all use this form.
func (v V) String() string {
	switch v.kind {
	case Null:
		return ""
	case Bool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.num, 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String:
		return v.str
	case Time:
		return v.Time().Format("2006-01-02T15:04:05Z07:00")
	}
	return ""
}

// NumRaw returns the raw 8-byte payload word without coercion: the
// int64 for Int/Bool/Time values, the IEEE-754 bits for Float values,
// and 0 for Null and String. Unlike Int, it is small enough to inline,
// which is what the columnar converter's per-cell loops need; callers
// must already know the kind.
func (v V) NumRaw() int64 { return v.num }

// StrRaw returns the raw string payload ("" unless the kind is String),
// skipping Str's display-form fallback. See NumRaw.
func (v V) StrRaw() string { return v.str }

// AppendTo appends the display form of the value (exactly String's
// output) to dst and returns the extended slice. Hot paths that build
// composite keys — the columnar group-by kernel — use it to avoid an
// intermediate string allocation per cell.
func (v V) AppendTo(dst []byte) []byte {
	switch v.kind {
	case Null:
		return dst
	case Bool:
		if v.num != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Int:
		return strconv.AppendInt(dst, v.num, 10)
	case Float:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case String:
		return append(dst, v.str...)
	case Time:
		return v.Time().AppendFormat(dst, "2006-01-02T15:04:05Z07:00")
	}
	return dst
}

// numericKind reports whether the kind participates in numeric coercion.
func numericKind(k Kind) bool { return k == Bool || k == Int || k == Float }

// Compare imposes a total order on values: nulls first, then values of
// comparable kinds by payload, then by kind. Mixed int/float/bool compare
// numerically; a numeric string compares numerically against a number so
// that payloads from text formats (CSV) behave intuitively in filters.
func Compare(a, b V) int {
	if a.kind == Null || b.kind == Null {
		switch {
		case a.kind == Null && b.kind == Null:
			return 0
		case a.kind == Null:
			return -1
		default:
			return 1
		}
	}
	if a.kind == b.kind {
		switch a.kind {
		case Bool, Int, Time:
			return cmpInt64(a.num, b.num)
		case Float:
			return cmpFloat(a.Float(), b.Float())
		case String:
			return strings.Compare(a.str, b.str)
		}
	}
	// Mixed numeric kinds compare as floats.
	if numericKind(a.kind) && numericKind(b.kind) {
		return cmpFloat(a.Float(), b.Float())
	}
	// A numeric string meets a number: compare numerically.
	if a.kind == String && numericKind(b.kind) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.str), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
	}
	if b.kind == String && numericKind(a.kind) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.str), 64); err == nil {
			return cmpFloat(a.Float(), f)
		}
	}
	// Otherwise order by kind tag for stability.
	return cmpInt64(int64(a.kind), int64(b.kind))
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal under Compare.
func Equal(a, b V) bool { return Compare(a, b) == 0 }

// Less reports whether a orders before b under Compare.
func Less(a, b V) bool { return Compare(a, b) < 0 }

// FNV-1a (64-bit) parameters. The hash state is a plain uint64 threaded
// through the fold functions below, so hashing allocates nothing.
const (
	// HashSeed is the initial state of every hash fold.
	HashSeed  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// Hash returns a stable 64-bit hash of the value, consistent with Equal
// for same-kind values (group-by keys are built from same-kind columns).
func (v V) Hash() uint64 { return v.hashInto(HashSeed) }

// HashString folds the bytes of s into the state h.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// HashRow folds one row into the state h: every cell in order, then a
// 0xFF terminator so row boundaries are part of the content. It is the
// unit table fingerprints are built from.
func HashRow(h uint64, row []V) uint64 {
	for _, v := range row {
		h = v.hashInto(h)
	}
	return (h ^ 0xFF) * hashPrime
}

// hashInto folds the value into h: a kind tag (so the string "1" and
// the int 1 hash differently), the payload word little-endian, then the
// string bytes.
func (v V) hashInto(h uint64) uint64 {
	n := uint64(v.num)
	if v.kind == Float {
		// Normalize -0 and NaN payloads so equal floats hash equally.
		f := v.Float()
		if f == 0 {
			f = 0
		}
		if math.IsNaN(f) {
			f = math.NaN()
		}
		n = math.Float64bits(f)
	}
	h = (h ^ uint64(v.kind)) * hashPrime
	for i := 0; i < 8; i++ {
		h = (h ^ (n >> (8 * i) & 0xFF)) * hashPrime
	}
	return HashString(h, v.str)
}

// FromAny converts a Go value produced by the JSON/XML decoders into a V.
// Unsupported types fall back to their fmt.Sprint form.
func FromAny(x any) V {
	switch t := x.(type) {
	case nil:
		return VNull
	case bool:
		return NewBool(t)
	case int:
		return NewInt(int64(t))
	case int64:
		return NewInt(t)
	case float64:
		// encoding/json decodes all numbers as float64; keep integral
		// values as Int so group-by keys and display stay clean.
		if t == math.Trunc(t) && math.Abs(t) < 1<<53 {
			return NewInt(int64(t))
		}
		return NewFloat(t)
	case string:
		return NewString(t)
	case time.Time:
		return NewTime(t)
	case V:
		return t
	default:
		return NewString(fmt.Sprint(x))
	}
}

// Size estimates the in-memory footprint of the value in bytes. The DAG
// optimizer uses it to cost data transfers between execution contexts.
func (v V) Size() int {
	const header = 24 // kind + num + string header, rounded
	return header + len(v.str)
}
