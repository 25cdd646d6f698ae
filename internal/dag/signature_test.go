package dag

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
)

// oracleSignatures is Graph.Signatures as it was before the static text
// moved out of it, kept verbatim as the reference: one hash per node,
// every text re-derived from the flow file on every call.
func oracleSignatures(g *Graph, sourceSig func(name string) string) map[string]string {
	sigs := make(map[string]string, len(g.Nodes))
	for _, name := range g.Order {
		n := g.Nodes[name]
		h := sha256.New()
		if n.IsSource() {
			fmt.Fprintf(h, "source|%s|%s|", name, sourceSig(name))
			if n.Def.Schema != nil {
				h.Write([]byte(n.Def.Schema.String()))
			}
		} else {
			fmt.Fprintf(h, "flow|%s|", n.Flow.Pipeline.String())
			for _, st := range n.Stages { // a parallel's expansion included
				h.Write(g.File.AppendTaskText(nil, st.Name))
				h.Write([]byte{0})
			}
			for _, in := range n.Inputs {
				h.Write([]byte(sigs[in]))
				h.Write([]byte{1})
			}
		}
		sigs[name] = hex.EncodeToString(h.Sum(nil))
	}
	return sigs
}

// goStrings evaluates every string expression in a Go file that is built
// from literals and the file's own constants — how the examples and the
// engine's differential suite spell their flow files.
func goStrings(t *testing.T, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]ast.Expr{}
	for _, decl := range file.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						consts[name.Name] = vs.Values[i]
					}
				}
			}
		}
	}
	var eval func(e ast.Expr) (string, bool)
	eval = func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(e.Value)
			return s, e.Kind == token.STRING && err == nil
		case *ast.Ident:
			if c, ok := consts[e.Name]; ok {
				return eval(c)
			}
		case *ast.ParenExpr:
			return eval(e.X)
		case *ast.BinaryExpr:
			x, okx := eval(e.X)
			y, oky := eval(e.Y)
			return x + y, e.Op == token.ADD && okx && oky
		}
		return "", false
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if s, ok := eval(e); ok {
				out = append(out, s)
				return false
			}
		}
		return true
	})
	return out
}

// flowTexts are the flow files the examples and the engine's differential
// suite spell, by the file that spells them, plus parallel composites
// (which neither spells), with the registry that resolves them.
func flowTexts(t *testing.T) (map[string][]string, *task.Registry) {
	t.Helper()
	reg := task.NewRegistry()
	err := reg.RegisterFunc("predict_resolution", func(cfg *flowfile.Node) (*task.FuncSpec, error) {
		out := cfg.Str("output")
		return &task.FuncSpec{
			OutFn:  func(in []task.Input) (*schema.Schema, error) { return in[0].Schema.Extend(out) },
			ExecFn: func(*task.Env, []*table.Table, []string) (*table.Table, error) { return nil, nil },
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string][]string{}
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	suite, _ := filepath.Glob(filepath.Join("..", "engine", "enginetest", "*_test.go"))
	for _, p := range append(examples, suite...) {
		texts[p] = goStrings(t, p)
	}
	quickstart := filepath.Join("..", "..", "examples", "quickstart", "dashboard.flow")
	b, err := os.ReadFile(quickstart)
	if err != nil {
		t.Fatal(err)
	}
	texts[quickstart] = []string{string(b)}
	par := `
D:
  raw: [postedTime, body]

D.raw:
  source: r.csv

F:
  D.mid: D.raw | T.pipe
  +D.out: D.mid | T.both | T.up

T:
  pipe:
    parallel: [T.up]
  both:
    parallel: [T.up, T.low]
  up:
    type: map
    operator: upper
    transform: body
  low:
    type: map
    operator: lower
    transform: body
`
	texts["parallel"] = []string{par, strings.Replace(par, "operator: lower", "operator: upper", 1)}
	return texts, reg
}

// signatureFlows are the flow files the signature oracle test compares
// on, by the file that spells them: every one of flowTexts that builds.
func signatureFlows(t *testing.T) map[string][]*Graph {
	t.Helper()
	texts, reg := flowTexts(t)
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	suite, _ := filepath.Glob(filepath.Join("..", "engine", "enginetest", "*_test.go"))
	quickstart := filepath.Join("..", "..", "examples", "quickstart", "dashboard.flow")
	graphs := map[string][]*Graph{}
	for p, list := range texts {
		for _, text := range list {
			f, err := flowfile.Parse("sigs", text)
			if err != nil || len(f.Flows) == 0 {
				continue
			}
			if g, err := Build(f, reg, nil); err == nil {
				graphs[p] = append(graphs[p], g)
			}
		}
	}
	if len(examples) != 4 || len(suite) == 0 {
		t.Fatalf("found %d examples and %d differential suite files", len(examples), len(suite))
	}
	for _, p := range append(examples, quickstart, suite[0]) {
		if len(graphs[p]) == 0 {
			t.Fatalf("no flow of %s builds", p)
		}
	}
	return graphs
}

// TestSignaturesMatchOracle holds Signatures over SignatureText byte for
// byte to the reference on every flow signatureFlows builds, so the
// node cache's keys survive the split unchanged.
func TestSignaturesMatchOracle(t *testing.T) {
	n := 0
	for p, graphs := range signatureFlows(t) {
		for _, g := range graphs {
			n++
			for _, src := range []func(string) string{
				func(name string) string { return "fp:" + name },
				func(string) string { return "" },
			} {
				want, got := oracleSignatures(g, src), g.Signatures(g.SignatureText(), src)
				if len(got) != len(want) {
					t.Fatalf("%s: %d signatures, want %d, for:\n%s", p, len(got), len(want), g.File)
				}
				for name, sig := range want {
					if got[name] != sig {
						t.Fatalf("%s: D.%s: signature %s, want %s, for:\n%s", p, name, got[name], sig, g.File)
					}
				}
			}
		}
	}
	if n < 20 {
		t.Fatalf("compared %d flows, want at least 20", n)
	}
}

// TestSignatureTextAllocs pins SignatureText at one buffer and one
// string per graph: on every flow signatureFlows builds it takes at most
// (produced nodes + 4) objects, where a string per node and per task
// text took hundreds.
func TestSignatureTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for p, graphs := range signatureFlows(t) {
		for _, g := range graphs {
			produced := 0
			for _, n := range g.Nodes {
				if !n.IsSource() {
					produced++
				}
			}
			n := testing.AllocsPerRun(10, func() { _ = g.SignatureText() })
			if n > float64(produced+4) {
				t.Errorf("%s: SignatureText of %d produced nodes takes %.0f objects, want at most %d, for:\n%s", p, produced, n, produced+4, g.File)
			}
		}
	}
}
