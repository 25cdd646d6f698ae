package flowcheck

import (
	"testing"

	"shareinsights/internal/value"
)

var allKinds = []Kind{KNone, KBool, KInt, KFloat, KString, KTime, KAny}

func allTypes() []Type {
	var out []Type
	for _, k := range allKinds {
		out = append(out, Type{Kind: k}, Type{Kind: k, Nullable: true})
	}
	return out
}

// sampleValues covers every runtime kind the engines produce.
func sampleValues() []value.V {
	return []value.V{
		value.VNull,
		value.NewBool(true),
		value.NewInt(-3),
		value.NewInt(0),
		value.NewFloat(2.5),
		value.NewString("east"),
		value.NewString("12"),
		value.Parse("2021-06-01T00:00:00Z"),
	}
}

func TestJoinIsLatticeLike(t *testing.T) {
	types := allTypes()
	for _, a := range types {
		if got := Join(a, a); got != a && !(a.Kind == KNone && got.Nullable) {
			// Joining bottom with itself forces nullability; everything
			// else must be idempotent.
			t.Errorf("Join(%v, %v) = %v, want idempotent", a, a, got)
		}
		for _, b := range types {
			ab, ba := Join(a, b), Join(b, a)
			if ab != ba {
				t.Errorf("Join not commutative: %v⊔%v=%v but %v⊔%v=%v", a, b, ab, b, a, ba)
			}
			for _, c := range types {
				if l, r := Join(Join(a, b), c), Join(a, Join(b, c)); l != r {
					t.Errorf("Join not associative at (%v,%v,%v): %v vs %v", a, b, c, l, r)
				}
			}
		}
	}
}

// Conforms reports whether a runtime value is admissible under the
// static type — the soundness relation the differential fuzzer
// (fuzz_test.go) checks every produced cell against.
// Null conforms only to nullable types; Int conforms to KInt and (by the
// int ⊑ float order) to KFloat; every value conforms to KAny.
func Conforms(v value.V, t Type) bool {
	if v.IsNull() {
		return t.Nullable || t.Kind == KNone || t.Kind == KAny
	}
	switch t.Kind {
	case KAny:
		return true
	case KNone:
		return false
	case KBool:
		return v.Kind() == value.Bool
	case KInt:
		return v.Kind() == value.Int
	case KFloat:
		return v.Kind() == value.Float || v.Kind() == value.Int
	case KString:
		return v.Kind() == value.String
	case KTime:
		return v.Kind() == value.Time
	}
	return false
}

// TestConformsMonotone is the heart of the soundness argument: widening a
// type (joining with anything) never rejects a value the narrower type
// admitted, so every transfer function that joins facts stays sound.
func TestConformsMonotone(t *testing.T) {
	types := allTypes()
	for _, v := range sampleValues() {
		for _, a := range types {
			if !Conforms(v, a) {
				continue
			}
			for _, b := range types {
				if j := Join(a, b); !Conforms(v, j) {
					t.Errorf("value %s conforms to %v but not to the wider %v = %v⊔%v", v, a, j, a, b)
				}
			}
		}
	}
}

func TestConformsCases(t *testing.T) {
	cases := []struct {
		v    value.V
		t    Type
		want bool
	}{
		{value.VNull, Type{Kind: KInt}, false},
		{value.VNull, Type{Kind: KInt, Nullable: true}, true},
		{value.VNull, Type{Kind: KNone, Nullable: true}, true},
		{value.NewInt(5), Type{Kind: KInt}, true},
		{value.NewInt(5), Type{Kind: KFloat}, true}, // int ⊑ float
		{value.NewFloat(5), Type{Kind: KInt}, false},
		{value.NewString("5"), Type{Kind: KInt}, false},
		{value.NewBool(true), Type{Kind: KAny}, true},
		{value.NewBool(true), Type{Kind: KNone, Nullable: true}, false},
	}
	for _, c := range cases {
		if got := Conforms(c.v, c.t); got != c.want {
			t.Errorf("Conforms(%s, %v) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
}

func TestCoarseConflict(t *testing.T) {
	num := Type{Kind: KInt}
	txt := Type{Kind: KString}
	tim := Type{Kind: KTime}
	unk := Unknown()
	cases := []struct {
		a, b Type
		want bool
	}{
		{num, txt, true},
		{num, Type{Kind: KFloat}, false}, // both "number"
		{txt, tim, false},                // the tolerated text/time pair
		{tim, txt, false},
		{num, tim, true},
		{unk, txt, false}, // unknown conflicts with nothing
		{Type{Kind: KNone, Nullable: true}, txt, false},
	}
	for _, c := range cases {
		if got := CoarseConflict(c.a, c.b); got != c.want {
			t.Errorf("CoarseConflict(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := CoarseConflict(c.b, c.a); got != c.want {
			t.Errorf("CoarseConflict(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		{Kind: KInt}:                   "int",
		{Kind: KFloat, Nullable: true}: "float?",
		{Kind: KNone, Nullable: true}:  "null",
		{Kind: KAny, Nullable: true}:   "any?",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", ty, got, want)
		}
	}
}
