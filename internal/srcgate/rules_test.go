package srcgate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// diagnostic is one rule finding, anchored to a source position.
type diagnostic struct {
	pos token.Pos
	msg string
}

// rules are the syntactic checks TestRepoIsClean holds the module to.
// Each reads one file and documents the (narrow) false-positive surface
// that going without type information buys.
var rules = []struct {
	name  string
	check func(*ast.File) []diagnostic
}{
	{"ctxbg", ctxBG},
	{"metricname", metricName},
	{"histbuckets", histBuckets},
	{"srvtimeout", srvTimeout},
}

// wantRe extracts the expectation from a `// want `pattern“ trailing
// comment, analysistest-style: the backquoted pattern is a regexp the
// diagnostic message on that line must match.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// runFixture checks one rule against one testdata fixture: every
// `// want` comment must be matched by exactly one diagnostic on its
// line, and no diagnostic may appear on a line without one. Fixtures
// use a .src extension so the toolchain never builds them.
func runFixture(t *testing.T, check func(*ast.File) []diagnostic, fixture string) {
	t.Helper()
	path := filepath.Join("testdata", fixture)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}

	wants := map[int]*regexp.Regexp{} // line -> expected message pattern
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, m[1], err)
			}
			wants[line] = re
		}
	}
	if len(wants) == 0 {
		t.Fatalf("%s: fixture has no // want comments", path)
	}

	got := map[int][]string{}
	for _, d := range check(f) {
		line := fset.Position(d.pos).Line
		got[line] = append(got[line], d.msg)
	}

	for line, re := range wants {
		msgs := got[line]
		if len(msgs) != 1 {
			t.Errorf("%s:%d: want exactly 1 diagnostic matching %v, got %d: %v", path, line, re, len(msgs), msgs)
			continue
		}
		if !re.MatchString(msgs[0]) {
			t.Errorf("%s:%d: diagnostic %q does not match want pattern %v", path, line, msgs[0], re)
		}
	}
	for line, msgs := range got {
		if _, ok := wants[line]; !ok {
			t.Errorf("%s:%d: unexpected diagnostic(s): %v", path, line, msgs)
		}
	}
}

func TestCtxBG(t *testing.T)       { runFixture(t, ctxBG, "ctxbg.go.src") }
func TestMetricName(t *testing.T)  { runFixture(t, metricName, "metricname.go.src") }
func TestHistBuckets(t *testing.T) { runFixture(t, histBuckets, "histbuckets.go.src") }
func TestSrvTimeout(t *testing.T)  { runFixture(t, srvTimeout, "srvtimeout.go.src") }

// TestRepoIsClean runs every rule over the module's non-test source:
// the naming, bucket, timeout and context contracts the rules enforce
// must hold here.
func TestRepoIsClean(t *testing.T) {
	m := load(t)
	for _, f := range m.files {
		for _, r := range rules {
			for _, d := range r.check(f.File) {
				t.Errorf("%s: %s: %s", m.fset.Position(d.pos), r.name, d.msg)
			}
		}
	}
}

// importName returns the local identifier a file binds the given
// import path to ("" when the path is not imported, "_" or "." kept
// verbatim for the caller to reject). Of two imports of one path, the
// first wins; importedAs reads each on its own.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if name := importedAs(imp, path); name != "" {
			return name
		}
	}
	return ""
}

// importedAs returns the name one import binds path to, or "" when it
// imports another path.
func importedAs(imp *ast.ImportSpec, path string) string {
	p, err := strconv.Unquote(imp.Path.Value)
	if err != nil || p != path {
		return ""
	}
	if imp.Name != nil {
		return imp.Name.Name
	}
	return path[strings.LastIndex(path, "/")+1:]
}

// TestImportName pins alias handling: aliased imports resolve to the
// alias, absent imports to "".
func TestImportName(t *testing.T) {
	cases := []struct {
		src, path, want string
	}{
		{`package p; import "context"`, "context", "context"},
		{`package p; import stdctx "context"`, "context", "stdctx"},
		{`package p; import _ "context"`, "context", "_"},
		{`package p; import "fmt"`, "context", ""},
	}
	for i, c := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, fmt.Sprintf("case%d.go", i), c.src+"\n", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := importName(f, c.path); got != c.want {
			t.Errorf("importName(%s, %q) = %q, want %q", strconv.Quote(c.src), c.path, got, c.want)
		}
	}
}
