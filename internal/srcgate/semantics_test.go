package srcgate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/task"
)

// semanticsExempt is what has no docs/SEMANTICS.md section and no
// reference case of its own: parallel never reaches an executor or the
// reference, as the resolver expands it into its subs, each held to its
// own section. It only shrinks: an entry that gains a section fails the
// gate until it is dropped.
var semanticsExempt = map[string]bool{
	"parallel": true,
}

// TestSemanticsDocumented holds the task library to its written meaning:
// every type task.NewRegistry registers, parallel, and every map operator
// ("map <operator>") has a docs/SEMANTICS.md section whose heading names
// it in backquotes (an operator: its type and its name), and every type
// has a case of the reference's refChain switch on its spec, unless it is
// on semanticsExempt.
func TestSemanticsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SEMANTICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var headings []map[string]bool
	for _, h := range regexp.MustCompile("(?m)^##+ .*$").FindAllString(string(doc), -1) {
		names := map[string]bool{}
		for _, sub := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(h, -1) {
			names[sub[1]] = true
		}
		headings = append(headings, names)
	}
	documented := func(unit string) bool {
		for _, names := range headings {
			typ, op, _ := strings.Cut(unit, " ")
			if names[typ] && (op == "" || names[op]) {
				return true
			}
		}
		return false
	}
	cases := referenceCases(t, typeNames(load(t)))

	units := task.NewRegistry().Types()
	for _, op := range task.Operators() {
		units = append(units, "map "+op)
	}
	seen := map[string]bool{}
	for _, u := range units {
		seen[u] = true
		switch {
		case semanticsExempt[u] && documented(u):
			t.Errorf("%s has a SEMANTICS.md section now; drop it from semanticsExempt", u)
		case semanticsExempt[u]:
		case !documented(u):
			t.Errorf("task %s has no docs/SEMANTICS.md section: add one whose heading names it in backquotes", u)
		case !strings.Contains(u, " ") && !cases[u]:
			t.Errorf("task %s has no case in enginetest's refChain: the reference must interpret it", u)
		}
	}
	for u := range semanticsExempt {
		if !seen[u] {
			t.Errorf("semanticsExempt lists %s, which is no longer a task or map operator; drop it", u)
		}
	}
}

// typeNames maps each spec type of internal/task to the name its Type
// method returns, for the specs whose Type returns a constant.
func typeNames(m *module) map[string]string {
	names := map[string]string{}
	for _, f := range m.files {
		if f.dir != "internal/task" {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Type" || fd.Recv == nil || len(fd.Body.List) != 1 {
				continue
			}
			recv, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			ret, ok2 := fd.Body.List[0].(*ast.ReturnStmt)
			if !ok || !ok2 || len(ret.Results) != 1 {
				continue
			}
			id, ok := recv.X.(*ast.Ident)
			lit, ok2 := ret.Results[0].(*ast.BasicLit)
			if ok && ok2 && lit.Kind == token.STRING {
				names[id.Name], _ = strconv.Unquote(lit.Value)
			}
		}
	}
	return names
}

// referenceCases returns the task types the reference interprets: those
// of the specs the type switch in enginetest's refChain has a case for.
func referenceCases(t *testing.T, typeOf map[string]string) map[string]bool {
	path := filepath.Join("..", "engine", "enginetest", "reference_test.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "refChain" {
			ast.Inspect(fd, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if star, ok := e.(*ast.StarExpr); ok {
							if sel, ok := star.X.(*ast.SelectorExpr); ok && typeOf[sel.Sel.Name] != "" {
								cases[typeOf[sel.Sel.Name]] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(cases) == 0 {
		t.Fatalf("%s: no refChain type switch found", path)
	}
	return cases
}

// TestTaskHasNoRowEngine fails on a call of Rows, Append or AppendValues
// in internal/task's non-test source — a table read or built row by row —
// except Append on a colstore.Builder: the union appends to one. Every
// task runs over batches.
func TestTaskHasNoRowEngine(t *testing.T) {
	m := load(t)
	for _, f := range m.files {
		if f.dir != "internal/task" {
			continue
		}
		local := importName(f.File, "shareinsights/internal/table/colstore")
		ast.Inspect(f.File, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case name == "Append" && builtBy(sel.X, local, "NewBuilder"):
			case name == "Rows" || name == "Append" || name == "AppendValues":
				t.Errorf("%s: internal/task calls %s; run the task over its input's batch", m.fset.Position(call.Pos()), name)
			}
			return true
		})
	}
}

// builtBy reports whether x is a variable declared by an assignment of a
// call of pkg.fn.
func builtBy(x ast.Expr, pkg, fn string) bool {
	id, ok := x.(*ast.Ident)
	if !ok || id.Obj == nil || pkg == "" {
		return false
	}
	as, ok := id.Obj.Decl.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, l := range as.Lhs {
		if l, ok := l.(*ast.Ident); !ok || l.Name != id.Name {
			continue
		}
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		p, ok := sel.X.(*ast.Ident)
		return ok && p.Name == pkg && sel.Sel.Name == fn
	}
	return false
}
