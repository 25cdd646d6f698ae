// Package srcgate holds the module's source gates: the syntactic rules
// ctxbg, metricname, histbuckets and srvtimeout, and the contracts that
// hold the docs and the expression parser's call sites to the code.
// Every gate reads one parse of the module, made once per test binary.
// The package has only test files: `go test ./...` runs it, and nothing
// links it.
package srcgate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// source is one parsed non-test file of the module.
type source struct {
	*ast.File
	dir string // module-relative, slash-separated directory; "." is the root package
}

// module is every non-test Go file of the module under one FileSet.
type module struct {
	fset  *token.FileSet
	files []source
}

var (
	loadOnce sync.Once
	loaded   module
	loadErr  error
)

// load returns the module, parsed with comments on first use. Every
// rule and gate here is syntactic, so nothing is type-checked.
func load(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = parseModule(filepath.Join("..", "..")) })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return &loaded
}

// parseModule parses the non-test .go files under root: the root
// package, cmd/, examples/ and internal/. It skips the directories the
// go tool ignores (testdata, and names starting with "." or "_") and
// nested modules, so bench/ is not read.
func parseModule(root string) (module, error) {
	m := module{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		m.files = append(m.files, source{File: f, dir: filepath.ToSlash(rel)})
		return nil
	})
	return m, err
}
