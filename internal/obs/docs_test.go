package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsDocumented holds the metric catalogue to the code, as
// TestRoutesDocumented holds the route table: every name a non-test file
// under internal/ or cmd/ passes as a string literal to a registry
// constructor appears verbatim in docs/*.md — a `{label}` suffix aside,
// and a family wildcard such as si_store_* does not count — and every
// si_* name the docs mention is one the code registers.
func TestMetricsDocumented(t *testing.T) {
	ctors := map[string]bool{"Counter": true, "CounterVec": true, "Gauge": true, "GaugeVec": true, "Histogram": true, "HistogramVec": true}
	registered := map[string]string{} // name -> where
	fset := token.NewFileSet()
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return fs.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if ok && isLit && ctors[sel.Sel.Name] && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					registered[name] = fset.Position(lit.Pos()).String()
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(registered) == 0 {
		t.Fatal("found no registered metric")
	}

	documented := map[string]string{} // name -> doc file
	pages, err := filepath.Glob(filepath.Join("..", "..", "docs", "*.md"))
	if err != nil || len(pages) == 0 {
		t.Fatalf("no docs pages: %v", err)
	}
	mention := regexp.MustCompile(`\bsi_[a-z0-9_]+\*?`)
	for _, page := range pages {
		text, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range mention.FindAllString(string(text), -1) {
			if !strings.HasSuffix(name, "*") {
				documented[name] = filepath.Base(page)
			}
		}
	}

	for name, where := range registered {
		if _, ok := documented[name]; !ok {
			t.Errorf("%s registers %s, which no docs/*.md page names", where, name)
		}
	}
	for name, page := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("docs/%s names %s, which nothing registers", page, name)
		}
	}
}
