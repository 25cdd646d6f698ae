package srcgate

import (
	"go/ast"
	"testing"
)

// parseCallers are the only non-test functions allowed to parse
// expression source, keyed by module-relative directory and function
// name. The task parsers keep the node on the spec, so every other
// consumer reads that node; a pushed predicate reaches a format as text
// over the extension contract, so the connector parses it once per
// decode.
var parseCallers = map[string]bool{
	"internal/task.NewFilter":                     true,
	"internal/task.newExprOperator":               true,
	"internal/connector.compilePushdownPredicate": true,
}

// TestParseCallers fails on any reference to expr.Parse in the module's
// non-test source outside parseCallers, and on an allowlisted function
// that no longer parses.
func TestParseCallers(t *testing.T) {
	m := load(t)
	seen := map[string]bool{}
	for _, file := range m.files {
		// isParse matches expr.Parse under whatever name the file imports
		// the package as, and a bare Parse inside the package itself.
		local := importName(file.File, "shareinsights/internal/expr")
		isParse := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				return ok && local != "" && id.Name == local && n.Sel.Name == "Parse"
			case *ast.CallExpr:
				id, ok := n.Fun.(*ast.Ident)
				return ok && file.dir == "internal/expr" && id.Name == "Parse"
			}
			return false
		}
		for _, decl := range file.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if !isParse(n) {
					return true
				}
				key := file.dir + "." + fn
				if !parseCallers[key] {
					t.Errorf("%s: %s parses expression source; parse once in the task parser and read the spec's node", m.fset.Position(n.Pos()), key)
				}
				seen[key] = true
				return true
			})
		}
	}
	for key := range parseCallers {
		if !seen[key] {
			t.Errorf("%s is allowlisted but no longer calls expr.Parse; drop it from parseCallers", key)
		}
	}
}
