package expr_test

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// The evaluation cases run through colstore.CompileVec, the one
// executable form of an expression, from this external package: colstore
// imports expr.

var testSchema = schema.MustFromNames("rating", "project", "count", "price")

func row(rating int64, project string, count int64, price float64) table.Row {
	return table.Row{value.NewInt(rating), value.NewString(project), value.NewInt(count), value.NewFloat(price)}
}

// compile parses src and compiles it against s into an evaluator of
// rows over s.
func compile(src string, s *schema.Schema) (func(table.Row) value.V, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return compileNode(n, s)
}

// compileNode compiles n against s: the evaluator runs it as a map,
// MapExpr.Run, over a batch of the one row it is handed.
func compileNode(n expr.Node, s *schema.Schema) (func(table.Row) value.V, error) {
	ev, err := colstore.CompileVec(n, s)
	if err != nil {
		return nil, err
	}
	out := s.ExtendOrSame("result")
	m := &colstore.MapExpr{Eval: ev, Out: out, Slot: out.Index("result")}
	return func(r table.Row) value.V {
		tb := table.New(s)
		tb.Append(r)
		b, _ := colstore.FromTable(tb)
		res, err := m.Run(b)
		if err != nil {
			panic(err)
		}
		return res.At(0, m.Slot)
	}, nil
}

func eval(t *testing.T, src string, r table.Row) value.V {
	t.Helper()
	ev, err := compile(src, testSchema)
	if err != nil {
		t.Fatalf("compile(%q): %v", src, err)
	}
	return ev(r)
}

func TestComparisons(t *testing.T) {
	r := row(2, "pig", 10, 1.5)
	cases := map[string]bool{
		"rating < 3":            true,
		"rating <= 2":           true,
		"rating > 2":            false,
		"rating >= 3":           false,
		"rating == 2":           true,
		"rating = 2":            true,
		"rating != 2":           false,
		"project == 'pig'":      true,
		"project != 'hive'":     true,
		"price > 1":             true,
		"price < 1.4":           false,
		"project contains 'ig'": true,
		"project contains 'zz'": false,
	}
	for src, want := range cases {
		if got := eval(t, src, r).Bool(); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestBooleanOperators(t *testing.T) {
	r := row(2, "pig", 10, 1.5)
	cases := map[string]bool{
		"rating < 3 and count > 5":           true,
		"rating < 3 && count > 50":           false,
		"rating > 3 or count > 5":            true,
		"rating > 3 || count > 50":           false,
		"not rating > 3":                     true,
		"!(rating > 3)":                      true,
		"rating < 3 and not count > 50":      true,
		"(rating > 3 or count > 5) and true": true,
	}
	for src, want := range cases {
		if got := eval(t, src, r).Bool(); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	r := row(2, "pig", 10, 1.5)
	intCases := map[string]int64{
		"rating + count":       12,
		"count - rating":       8,
		"count * 3":            30,
		"count / 3":            3,
		"count % 3":            1,
		"-rating":              -2,
		"count + rating * 2":   14, // precedence
		"(count + rating) * 2": 24,
	}
	for src, want := range intCases {
		if got := eval(t, src, r); got.Kind() != value.Int || got.Int() != want {
			t.Errorf("%q = %v (%v), want %d", src, got, got.Kind(), want)
		}
	}
	if got := eval(t, "price * 2", r); got.Float() != 3.0 {
		t.Errorf("price*2 = %v", got)
	}
	if got := eval(t, "count / 0", r); !got.IsNull() {
		t.Errorf("division by zero = %v, want null", got)
	}
	if got := eval(t, "project + '!'", r); got.Str() != "pig!" {
		t.Errorf("string concat = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "rating <", "(rating > 1", "rating ?? 2", "'unterminated",
		"rating > > 2", "and rating",
	}
	for _, src := range bad {
		if _, err := expr.Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestBindErrors(t *testing.T) {
	if _, err := compile("missing > 1", testSchema); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("bind error = %v", err)
	}
}

// TestColumnsInSourceOrder: Columns names each referenced column once,
// in first-appearance order, and never a literal — the order a
// missing-column error and lint's FL003 findings report them in.
func TestColumnsInSourceOrder(t *testing.T) {
	cases := map[string][]string{
		"rating < 3 and project == 'pig' or count + rating > 5": {"rating", "project", "count"},
		"gamma > 3 and alpha > 1 and beta > 2 and alpha < 9":    {"gamma", "alpha", "beta"},
		"not (z in (y, 'x', w)) or -v > 0":                      {"z", "y", "w", "v"},
		"'pig' == 1":                                            nil,
	}
	for src, want := range cases {
		n, err := expr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for range 20 {
			if got := expr.Columns(n); !slices.Equal(got, want) {
				t.Fatalf("Columns(%q) = %v, want %v", src, got, want)
			}
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// Parsing a node's String() form yields an equivalent evaluator.
	srcs := []string{
		"rating < 3 and project == 'pig'",
		"count * 2 + rating",
		"not (rating > 1 or price < 0.5)",
		"project contains 'i'",
	}
	rows := []table.Row{
		row(2, "pig", 10, 1.5),
		row(5, "hive", 0, 0.1),
		row(0, "", -3, 100),
	}
	for _, src := range srcs {
		n1, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		n2, err := expr.Parse(n1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", n1.String(), err)
		}
		e1, err := compileNode(n1, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := compileNode(n2, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !value.Equal(e1(r), e2(r)) {
				t.Errorf("%q: round trip changed value on %v", src, r)
			}
		}
	}
}

func TestQuotedStringEscapes(t *testing.T) {
	ev, err := compile(`project == 'o\'brien'`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	r := table.Row{value.NewInt(0), value.NewString("o'brien"), value.NewInt(0), value.NewFloat(0)}
	if !ev(r).Bool() {
		t.Error("escaped quote comparison failed")
	}
}

func TestArithProperties(t *testing.T) {
	// Int addition in the expression language matches Go int64 addition.
	add := func(a, b int32) bool {
		got := expr.Arith("+", value.NewInt(int64(a)), value.NewInt(int64(b)))
		return got.Int() == int64(a)+int64(b)
	}
	if err := quick.Check(add, nil); err != nil {
		t.Errorf("add: %v", err)
	}
	// a - a == 0 for all ints.
	sub := func(a int64) bool {
		return expr.Arith("-", value.NewInt(a), value.NewInt(a)).Int() == 0
	}
	if err := quick.Check(sub, nil); err != nil {
		t.Errorf("sub: %v", err)
	}
	// Division by zero is always null.
	div := func(a int64) bool {
		return expr.Arith("/", value.NewInt(a), value.NewInt(0)).IsNull()
	}
	if err := quick.Check(div, nil); err != nil {
		t.Errorf("div: %v", err)
	}
}

func TestNullSemantics(t *testing.T) {
	s := schema.MustFromNames("x")
	r := table.Row{value.VNull}
	ev, err := compile("x == null", s)
	if err != nil {
		t.Fatal(err)
	}
	if !ev(r).Bool() {
		t.Error("null == null should hold")
	}
	ev2, _ := compile("x < 5", s)
	if !ev2(r).Bool() {
		t.Error("null sorts before numbers, so null < 5")
	}
}

func TestInOperator(t *testing.T) {
	r := row(2, "pig", 10, 1.5)
	cases := map[string]bool{
		"project in ('pig', 'hive')":    true,
		"project in ('hive', 'spark')":  false,
		"rating in (1, 2, 3)":           true,
		"rating in (4, 5)":              false,
		"project in ('pig')":            true,
		"count in (rating, 10)":         true, // column references inside the list
		"not project in ('pig','hive')": false,
	}
	for src, want := range cases {
		if got := eval(t, src, r).Bool(); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	// Round trip.
	n, err := expr.Parse("project in ('pig', 'o\\'brien')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := expr.Parse(n.String()); err != nil {
		t.Fatalf("in round trip: %q: %v", n.String(), err)
	}
	// A tuple anywhere else is rejected.
	if _, err := compile("('a','b') == project", testSchema); err == nil {
		t.Error("tuple outside in should fail to bind")
	}
	if _, err := compile("rating + (1,2)", testSchema); err == nil {
		t.Error("tuple in arithmetic should fail to bind")
	}
}
