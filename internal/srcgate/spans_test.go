package srcgate

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSpansDocumented holds the span catalogue to the code: every string
// literal the module's non-test source passes as a SpanFlag flag or a
// SpanInt key appears backquoted in docs/OBSERVABILITY.md.
func TestSpansDocumented(t *testing.T) {
	m := load(t)
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range m.files {
		ast.Inspect(f.File, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "SpanFlag" && sel.Sel.Name != "SpanInt" {
				return true
			}
			lit, ok := call.Args[1].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			n++
			if !strings.Contains(string(doc), "`"+name+"`") {
				t.Errorf("%s: span value %q is not in docs/OBSERVABILITY.md", m.fset.Position(lit.Pos()), name)
			}
			return true
		})
	}
	if n == 0 {
		t.Fatal("found no span flag or value")
	}
}
