package expr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
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

// TestParseCallers walks the module's non-test Go files and fails on any
// reference to expr.Parse outside parseCallers, and on an allowlisted
// function that no longer parses.
func TestParseCallers(t *testing.T) {
	root := filepath.Join("..", "..")
	const importPath = "shareinsights/internal/expr"
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		// isParse matches expr.Parse under whatever name the file imports
		// the package as, and a bare Parse inside the package itself.
		local := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
				local = "expr"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		isParse := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				return ok && local != "" && id.Name == local && n.Sel.Name == "Parse"
			case *ast.CallExpr:
				id, ok := n.Fun.(*ast.Ident)
				return ok && rel == "internal/expr" && id.Name == "Parse"
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
				key := rel + "." + fn
				if !parseCallers[key] {
					t.Errorf("%s: %s parses expression source; parse once in the task parser and read the spec's node", fset.Position(n.Pos()), key)
				}
				seen[key] = true
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range parseCallers {
		if !seen[key] {
			t.Errorf("%s is allowlisted but no longer calls expr.Parse; drop it from parseCallers", key)
		}
	}
}
