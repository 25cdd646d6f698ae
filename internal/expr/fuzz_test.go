package expr_test

import (
	"slices"
	"testing"

	"shareinsights/internal/expr"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// FuzzParseEval drives the expression parser and colstore.CompileVec, run
// as a map (MapExpr.Run), with arbitrary sources: never panic, and
// parseable expressions must round-trip through String() to an expression
// that reads the same columns in the same order and compiles to the same
// results over the same rows.
func FuzzParseEval(f *testing.F) {
	f.Add("rating < 3 and project == 'pig'")
	f.Add("count * 2 + rating % 3")
	f.Add("not (price / 0 == null)")
	f.Add("project contains 'x' or true")
	f.Add("-rating >= -5")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := expr.Parse(src)
		if err != nil {
			return
		}
		n2, err := expr.Parse(n.String())
		if err != nil {
			t.Fatalf("String() form does not re-parse: %q -> %q: %v", src, n.String(), err)
		}
		if c1, c2 := expr.Columns(n), expr.Columns(n2); !slices.Equal(c1, c2) {
			t.Fatalf("round trip changed the columns of %q: %v -> %v", src, c1, c2)
		}
		e1, err1 := compileNode(n, testSchema)
		e2, err2 := compileNode(n2, testSchema)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("compile disagreement for %q", src)
		}
		if err1 != nil {
			return
		}
		rows := []table.Row{
			row(2, "pig", 10, 1.5),
			row(-7, "", 0, 0),
			{value.VNull, value.VNull, value.VNull, value.VNull},
		}
		for _, r := range rows {
			if !value.Equal(e1(r), e2(r)) {
				t.Fatalf("round trip changed semantics of %q on %v", src, r)
			}
		}
	})
}
