package flowcheck

import (
	"sort"
	"strings"
	"testing"

	"shareinsights/internal/expr"
	"shareinsights/internal/value"
)

// checkSrc parses src and lowers it against the scope.
func checkSrc(t *testing.T, src string, sc Scope) (*Expr, []Issue) {
	t.Helper()
	n, err := expr.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return check(n, sc, "", nil)
}

// testScope is the standard fixture: typed sales columns plus a counter
// with a proven interval and a provably-null column.
func testScope() Scope {
	return Scope{
		"region": {Type: Type{Kind: KString}},
		"flag":   {Type: Type{Kind: KBool}},
		"amount": {Type: Type{Kind: KInt, Nullable: true}},
		"ratio":  {Type: Type{Kind: KFloat, Nullable: true}},
		"ts":     {Type: Type{Kind: KTime}},
		"cnt":    {Type: Type{Kind: KInt}, Ivl: &Interval{Lo: 1, HasLo: true}},
		"dead":   {Type: Type{Kind: KNone, Nullable: true}},
	}
}

func rulesOf(issues []Issue) []string {
	var out []string
	for _, is := range issues {
		out = append(out, is.Rule)
	}
	sort.Strings(out)
	return out
}

func TestCheckExprRules(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		// Clean expressions.
		{"amount > 10", nil},
		{"region == 'east' and flag", nil},
		{"amount + ratio * 2", nil},
		{"amount in (1, 2, 3)", nil},
		{"region contains 'ea'", nil},
		{"region contains 1", nil}, // the needle coerces to text; legacy checks the haystack only
		{"ts > '2021-06-01'", nil}, // text/time comparisons are idiomatic
		{"null == 1", nil},         // an author-written null literal is deliberate

		// FL004: legacy coarse mismatches, wording preserved.
		{"region + 1", []string{"FL004"}},
		{"-region", []string{"FL004"}},
		{"amount == region", []string{"FL004"}},
		{"amount contains 'x'", []string{"FL004"}},
		{"amount in (1, 'east')", []string{"FL004"}},
		{"ts > 5", []string{"FL004"}},

		// FL060: operations no engine path gives a number for.
		{"ts + 1", []string{"FL060"}},
		{"-ts", []string{"FL060"}},
		{"flag contains 'x'", []string{"FL060"}},

		// FL061: a time column against text that orders by kind tag only.
		{"ts > 'not a date'", []string{"FL061"}},
		{"'not a date' < ts", []string{"FL061"}},
		{"ts > '42'", nil}, // numeric text compares numerically

		// FL062: a provably-null operand that is not a written literal.
		{"dead == 1", []string{"FL062"}},
		{"dead + 1", []string{"FL062"}},
		{"-dead", []string{"FL062"}},
	}
	for _, c := range cases {
		_, issues := checkSrc(t, c.src, testScope())
		got := rulesOf(issues)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("check(%q) rules = %v, want %v (issues: %v)", c.src, got, c.want, issues)
		}
	}
}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"amount > 10", ""},
		{"1 < 2", "always_true"},
		{"1 > 2", "always_false"},
		{"not (1 > 2)", "always_true"},
		{"amount > 10 or 1 < 2", "always_true"},
		{"amount > 10 and 1 > 2", "always_false"},
		{"'a' == 'a'", "always_true"},
		{"2 in (1, 2, 3)", "always_true"},
		{"5 in (1, 2, 3)", "always_false"},
		{"amount in (1, 2, 3)", ""},
		// Interval proofs: cnt carries [1, ∞).
		{"cnt >= 1", "always_true"},
		{"cnt > 0", "always_true"},
		{"cnt < 1", "always_false"},
		{"cnt > 5", ""},
		{"0 >= cnt", "always_false"}, // flipped orientation
		// Nullable columns never get interval verdicts: null orders below
		// every constant, so `amount > ...` can be false even when the
		// interval proves the non-null cells pass.
		{"amount >= -100000", ""},
	}
	for _, c := range cases {
		root, _ := checkSrc(t, c.src, testScope())
		if got := Verdict(root); got != c.want {
			t.Errorf("Verdict(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestRefineFilter(t *testing.T) {
	lower := func(src string) Scope {
		sc := testScope()
		root, _ := checkSrc(t, src, sc)
		if root == nil {
			t.Fatalf("expression %q did not lower", src)
		}
		return RefineFilter(sc, root)
	}

	// `amount > 10` strips nullability and sets the lower bound.
	sc := lower("amount > 10")
	f := sc["amount"]
	if f.Type.Nullable {
		t.Errorf("amount > 10: amount still nullable downstream")
	}
	if f.Ivl == nil || !f.Ivl.HasLo || f.Ivl.Lo != 10 {
		t.Errorf("amount > 10: interval = %+v, want Lo=10", f.Ivl)
	}

	// Conjunctions narrow both sides; the column side may be on the right.
	sc = lower("amount >= 2 and 8 >= amount")
	f = sc["amount"]
	if f.Ivl == nil || f.Ivl.Lo != 2 || f.Ivl.Hi != 8 || !f.Ivl.HasLo || !f.Ivl.HasHi {
		t.Errorf("conjunction: interval = %+v, want [2, 8]", f.Ivl)
	}

	// `region == 'east'` pins the constant.
	sc = lower("region == 'east'")
	f = sc["region"]
	if f.Const == nil || f.Const.Str() != "east" {
		t.Errorf("region == 'east': const = %v, want east", f.Const)
	}

	// Numeric-string equality must NOT pin: value.Compare treats "12" as
	// the number 12, so Int 12 also passes the filter.
	sc = lower("region == '12'")
	if sc["region"].Const != nil {
		t.Errorf("region == '12' pinned a const; numeric strings match numbers too")
	}

	// `amount == null` keeps only null cells.
	sc = lower("amount == null")
	f = sc["amount"]
	if f.Type.Kind != KNone {
		t.Errorf("amount == null: type = %v, want null", f.Type)
	}

	// A bare boolean column conjunct discards nulls.
	sc2 := Scope{"ok": {Type: Type{Kind: KBool, Nullable: true}}}
	root, _ := checkSrc(t, "ok", sc2)
	if got := RefineFilter(sc2, root)["ok"]; got.Type.Nullable {
		t.Errorf("bare column filter: ok still nullable")
	}

	// Disjunctions must refine nothing: either branch alone may pass.
	sc = lower("amount > 10 or flag")
	if f := sc["amount"]; f.Ivl != nil || f.Type.Nullable != true {
		t.Errorf("or-filter refined amount to %+v; disjunctions prove nothing", f)
	}
}

func TestCardBounds(t *testing.T) {
	src := CardUnknown()
	if got := src.capMax(10); got.Unbounded || got.Max != 10 {
		t.Errorf("capMax(10) = %+v", got)
	}
	lim := Card{Min: 5, Max: 100}
	if got := lim.capMax(3); got.Min != 3 || got.Max != 3 {
		t.Errorf("capMax below min = %+v, want [3,3]", got)
	}
	if got := lim.dropMin(); got.Min != 0 || got.Max != 100 {
		t.Errorf("dropMin = %+v", got)
	}
	if got := lim.collapse(); got.Min != 1 || got.Max != 100 {
		t.Errorf("collapse = %+v, want [1,100]", got)
	}
	if got := addCard(Card{Min: 1, Max: 2}, Card{Min: 3, Max: 4}); got.Min != 4 || got.Max != 6 {
		t.Errorf("addCard = %+v, want [4,6]", got)
	}
	if got := addCard(lim, CardUnknown()); !got.Unbounded || got.Min != 5 {
		t.Errorf("addCard unbounded = %+v", got)
	}
}

func TestFoldingMatchesRuntime(t *testing.T) {
	// The folder's constants must be the values the engine computes; spot
	// checks on the tricky promotions.
	cases := []struct {
		src  string
		want value.V
	}{
		{"2 + 3", value.NewInt(5)},
		{"2 + 3.5", value.NewFloat(5.5)},
		// String concatenation still draws the legacy FL004 warning
		// (arithmetic on text), but the fold must match the engine: '+'
		// on two strings concatenates.
		{"'a' + 'b'", value.NewString("ab")},
		{"7 % 3", value.NewInt(1)},
		{"1 / 0", value.VNull}, // division by zero is null, not a crash
		{"-2.5", value.NewFloat(2.5 * -1)},
	}
	for _, c := range cases {
		root, _ := checkSrc(t, c.src, Scope{})
		if root == nil || root.Const == nil {
			t.Errorf("fold %q: no constant", c.src)
			continue
		}
		if root.Const.Kind() != c.want.Kind() || !value.Equal(*root.Const, c.want) {
			t.Errorf("fold %q = %s (%v), want %s (%v)", c.src, root.Const, root.Const.Kind(), c.want, c.want.Kind())
		}
		if !Conforms(*root.Const, root.Type) {
			t.Errorf("fold %q: constant %s does not conform to its own type %v", c.src, root.Const, root.Type)
		}
	}
}
