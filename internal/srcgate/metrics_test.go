package srcgate

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsDocumented holds the metric catalogue to the code, as
// TestRoutesDocumented holds the route table: every name the module's
// non-test source passes as a string literal to a registry constructor
// appears verbatim in docs/*.md — a `{label}` suffix aside, and a family
// wildcard such as si_store_* does not count — and every si_* name the
// docs mention is one the code registers.
func TestMetricsDocumented(t *testing.T) {
	m := load(t)
	registered := map[string]string{} // name -> where
	for _, f := range m.files {
		metricNames(f.File, func(lit *ast.BasicLit, name string) {
			registered[name] = m.fset.Position(lit.Pos()).String()
		})
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
