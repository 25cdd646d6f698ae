package srcgate

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
)

// TestDataDetailsDocumented guards the data-detail vocabulary against
// drift: every key the program reads from a detail block — a
// .Prop("key") call or a .Props["key"] index in the module's non-test
// source — is known to lint (FL041 asks flowfile and connector), and
// docs/GRAMMAR.md's "Recognized detail properties" paragraph lists
// exactly those keys plus the ones the parser lifts out of the block
// (endpoint, publish, schema).
func TestDataDetailsDocumented(t *testing.T) {
	known := map[string]bool{connector.HeaderPrefix: true}
	for _, k := range append(flowfile.DetailKeys(), connector.DetailKeys...) {
		known[k] = true
	}

	m := load(t)
	for _, f := range m.files {
		ast.Inspect(f.File, func(n ast.Node) bool {
			var lit ast.Expr
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Prop" && len(n.Args) == 1 {
					lit = n.Args[0]
				}
			case *ast.IndexExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Props" {
					lit = n.Index
				}
			}
			if bl, ok := lit.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				key, _ := strconv.Unquote(bl.Value)
				if !known[key] {
					t.Errorf("%s reads data detail %q, which lint does not know (flowfile details or connector.DetailKeys)", m.fset.Position(bl.Pos()), key)
				}
			}
			return true
		})
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "GRAMMAR.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, para, ok := strings.Cut(string(doc), "Recognized detail properties:")
	if !ok {
		t.Fatal(`docs/GRAMMAR.md has no "Recognized detail properties" paragraph`)
	}
	para, _, _ = strings.Cut(para, "\n\n")
	// Parenthesized asides list values, not keys.
	para = regexp.MustCompile(`\([^)]*\)`).ReplaceAllString(para, "")
	var documented []string
	for _, sub := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(para, -1) {
		key := sub[1]
		if strings.HasPrefix(key, connector.HeaderPrefix) {
			key = connector.HeaderPrefix
		}
		documented = append(documented, key)
	}
	var want []string
	for k := range known {
		want = append(want, k)
	}
	want = append(want, "endpoint", "publish", "schema")
	sort.Strings(documented)
	sort.Strings(want)
	if strings.Join(documented, " ") != strings.Join(want, " ") {
		t.Errorf("docs/GRAMMAR.md recognized detail properties = %v, want %v", documented, want)
	}
}

// TestRulesDocumented holds the lint rule set to its docs both ways:
// every "FLnnn" literal in non-test code has an FLnnn heading in
// docs/LINTING.md or docs/TYPES.md, and every such heading names a rule
// the code still emits.
func TestRulesDocumented(t *testing.T) {
	rule := regexp.MustCompile(`^FL[0-9]{3}$`)
	emitted := map[string]string{}
	m := load(t)
	for _, f := range m.files {
		ast.Inspect(f.File, func(n ast.Node) bool {
			if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if s, _ := strconv.Unquote(bl.Value); rule.MatchString(s) {
					emitted[s] = m.fset.Position(bl.Pos()).String()
				}
			}
			return true
		})
	}
	heading := regexp.MustCompile(`(?m)^#+ (FL[0-9]{3})\b`)
	documented := map[string]string{}
	for _, doc := range []string{"LINTING.md", "TYPES.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "docs", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range heading.FindAllStringSubmatch(string(b), -1) {
			documented[h[1]] = doc
		}
	}
	for r, pos := range emitted {
		if documented[r] == "" {
			t.Errorf("%s: rule %s has no heading in docs/LINTING.md or docs/TYPES.md", pos, r)
		}
	}
	for r, doc := range documented {
		if emitted[r] == "" {
			t.Errorf("docs/%s documents %s, which no code emits", doc, r)
		}
	}
}
