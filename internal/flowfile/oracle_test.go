package flowfile

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/schema"
)

// The fmt-based serializer that the appending writer replaced, kept
// verbatim (renamed) as the reference the canonical text is held to
// byte for byte: the flow hash, the VCS's stored text and the node
// cache's signature text all depend on it.

func oracleString(f *File) string {
	var b strings.Builder
	if len(f.DataOrder) > 0 {
		b.WriteString("D:\n")
		for _, name := range f.DataOrder {
			d := f.Data[name]
			switch {
			case d.Schema != nil:
				fmt.Fprintf(&b, "  %s: %s\n", name, oracleSchemaString(d.Schema))
			default:
				fmt.Fprintf(&b, "  %s:\n", name)
			}
		}
		for _, name := range f.DataOrder {
			d := f.Data[name]
			if !oracleHasDetails(d) {
				continue
			}
			fmt.Fprintf(&b, "\nD.%s:\n", name)
			for _, k := range d.PropOrder {
				fmt.Fprintf(&b, "  %s: %s\n", k, oracleQuoteIfNeeded(d.Props[k]))
			}
			if d.Endpoint {
				b.WriteString("  endpoint: true\n")
			}
			if d.Publish != "" {
				fmt.Fprintf(&b, "  publish: %s\n", d.Publish)
			}
		}
		b.WriteString("\n")
	}
	if len(f.Flows) > 0 {
		b.WriteString("F:\n")
		for _, fl := range f.Flows {
			fmt.Fprintf(&b, "  %s\n", oracleFlowString(fl))
		}
		b.WriteString("\n")
	}
	if len(f.TaskOrder) > 0 {
		b.WriteString("T:\n")
		for _, name := range f.TaskOrder {
			oracleWriteNodeBlock(&b, name, f.Tasks[name].Config, 1)
		}
		b.WriteString("\n")
	}
	if len(f.WidgetOrder) > 0 {
		b.WriteString("W:\n")
		for _, name := range f.WidgetOrder {
			oracleWriteNodeBlock(&b, name, f.Widgets[name].Config, 1)
		}
		b.WriteString("\n")
	}
	if f.Layout != nil {
		b.WriteString("L:\n")
		if f.Layout.Description != "" {
			fmt.Fprintf(&b, "  description: %s\n", oracleQuoteIfNeeded(f.Layout.Description))
		}
		if len(f.Layout.Rows) > 0 {
			b.WriteString("  rows:\n")
			for _, row := range f.Layout.Rows {
				cells := make([]string, len(row.Cells))
				for i, c := range row.Cells {
					cells[i] = fmt.Sprintf("span%d: W.%s", c.Span, c.Widget)
				}
				fmt.Fprintf(&b, "    - [%s]\n", strings.Join(cells, ", "))
			}
		}
	}
	return b.String()
}

func oracleHasDetails(d *DataDef) bool {
	return len(d.Props) > 0 || d.Endpoint || d.Publish != ""
}

func oracleWriteNodeBlock(b *strings.Builder, name string, n *Node, level int) {
	pad := strings.Repeat("  ", level)
	switch n.Kind {
	case ScalarNode:
		fmt.Fprintf(b, "%s%s: %s\n", pad, name, oracleQuoteIfNeeded(n.Scalar))
	case ListNode:
		if inline, ok := oracleInlineList(n); ok {
			fmt.Fprintf(b, "%s%s: %s\n", pad, name, inline)
			return
		}
		fmt.Fprintf(b, "%s%s:\n", pad, name)
		for _, it := range n.Items {
			oracleWriteListItem(b, it, level+1)
		}
	case MapNode:
		fmt.Fprintf(b, "%s%s:\n", pad, name)
		for _, e := range n.Entries {
			oracleWriteNodeBlock(b, e.Key, e.Value, level+1)
		}
	}
}

func oracleWriteListItem(b *strings.Builder, n *Node, level int) {
	pad := strings.Repeat("  ", level)
	switch n.Kind {
	case ScalarNode:
		fmt.Fprintf(b, "%s- %s\n", pad, oracleQuoteIfNeeded(n.Scalar))
	case ListNode:
		if inline, ok := oracleInlineList(n); ok {
			fmt.Fprintf(b, "%s- %s\n", pad, inline)
			return
		}
		fmt.Fprintf(b, "%s-\n", pad)
		for _, it := range n.Items {
			oracleWriteListItem(b, it, level+1)
		}
	case MapNode:
		for i, e := range n.Entries {
			k, child := e.Key, e.Value
			if i == 0 {
				if child.Kind == ScalarNode {
					fmt.Fprintf(b, "%s- %s: %s\n", pad, k, oracleQuoteIfNeeded(child.Scalar))
					continue
				}
				fmt.Fprintf(b, "%s- %s:\n", pad, k)
				oracleWriteChildBlock(b, child, level+2)
				continue
			}
			oracleWriteNodeBlock(b, k, child, level+1)
		}
	}
}

func oracleWriteChildBlock(b *strings.Builder, n *Node, level int) {
	switch n.Kind {
	case MapNode:
		for _, e := range n.Entries {
			oracleWriteNodeBlock(b, e.Key, e.Value, level)
		}
	case ListNode:
		for _, it := range n.Items {
			oracleWriteListItem(b, it, level)
		}
	}
}

func oracleInlineList(n *Node) (string, bool) {
	parts := make([]string, 0, len(n.Items))
	total := 0
	for _, it := range n.Items {
		if it.Kind != ScalarNode {
			return "", false
		}
		q := oracleQuoteIfNeeded(it.Scalar)
		total += len(q) + 2
		parts = append(parts, q)
	}
	if total > 76 {
		return "", false
	}
	return "[" + strings.Join(parts, ", ") + "]", true
}

func oracleQuoteIfNeeded(s string) string {
	if s == "" {
		return "''"
	}
	if strings.ContainsAny(s, ":#[](),'\"") || s != strings.TrimSpace(s) {
		return "'" + strings.ReplaceAll(s, "'", `\'`) + "'"
	}
	return s
}

func oracleTaskText(f *File, name string) string {
	t, ok := f.Tasks[name]
	if !ok {
		return ""
	}
	var b strings.Builder
	oracleWriteNodeBlock(&b, name, t.Config, 0)
	return b.String()
}

func oraclePipelineString(p *Pipeline) string {
	var b strings.Builder
	if len(p.Inputs) == 1 {
		b.WriteString(p.Inputs[0].String())
	} else {
		b.WriteByte('(')
		for i, in := range p.Inputs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(in.String())
		}
		b.WriteByte(')')
	}
	for _, t := range p.Tasks {
		b.WriteString(" | ")
		b.WriteString(t.String())
	}
	return b.String()
}

func oracleFlowString(f *Flow) string {
	outs := make([]string, len(f.Outputs))
	for i, o := range f.Outputs {
		outs[i] = o.String()
	}
	lhs := outs[0]
	if len(outs) > 1 {
		lhs = "(" + strings.Join(outs, ", ") + ")"
	}
	return lhs + ": " + oraclePipelineString(f.Pipeline)
}

func oracleSchemaString(s *schema.Schema) string {
	parts := make([]string, s.Len())
	for i, c := range s.Columns() {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// checkCanonicalText compares every appending writer with the oracle on
// one parsed file: the file text, each task's text (and an absent
// task's), each flow's and widget pipeline's text, each schema's.
func checkCanonicalText(t *testing.T, f *File) {
	t.Helper()
	if got, want := f.String(), oracleString(f); got != want {
		t.Fatalf("canonical text differs from the oracle\ngot:  %q\nwant: %q", got, want)
	}
	for _, name := range f.TaskOrder {
		got := string(f.AppendTaskText([]byte("prefix"), name))
		if want := "prefix" + oracleTaskText(f, name); got != want {
			t.Fatalf("task %s: text %q, want %q", name, got, want)
		}
	}
	if got := f.AppendTaskText([]byte("prefix"), "no such task"); string(got) != "prefix" {
		t.Fatalf("an absent task appended %q", got)
	}
	for _, fl := range f.Flows {
		if got, want := fl.String(), oracleFlowString(fl); got != want {
			t.Fatalf("flow text %q, want %q", got, want)
		}
	}
	for _, name := range f.WidgetOrder {
		if p := f.Widgets[name].Source; p != nil && p.String() != oraclePipelineString(p) {
			t.Fatalf("widget %s: pipeline %q, want %q", name, p.String(), oraclePipelineString(p))
		}
	}
	for _, name := range f.DataOrder {
		if s := f.Data[name].Schema; s != nil && s.String() != oracleSchemaString(s) {
			t.Fatalf("D.%s: schema %q, want %q", name, s.String(), oracleSchemaString(s))
		}
	}
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

// canonicalEdges sit on the writer's edges: quotes escaped in place, and
// lists one byte either side of the 76-byte inline limit, one of them
// tipped over it by its escape.
var canonicalEdges = []string{
	"T:\n  t:\n    type: x\n    say: \"it's\"\n    l: [a, 'b, c', '', ' x']\n",
	"T:\n  t:\n    type: x\n    l: [" + strings.Repeat("a", 74) + "]\n    m: [" + strings.Repeat("b", 75) + "]\n" +
		"    n: [\"" + strings.Repeat("c", 71) + "'\"]\n    o:\n      - k: [" + strings.Repeat("d", 74) + "]\n",
}

// TestCanonicalTextMatchesOracle holds the appending writer to the old
// serializer on every flow literal that parses in the examples, the
// quickstart flow file, the engine's differential suite and the parser's
// fuzz seeds.
func TestCanonicalTextMatchesOracle(t *testing.T) {
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	suite, _ := filepath.Glob(filepath.Join("..", "engine", "enginetest", "*_test.go"))
	if len(examples) != 4 || len(suite) == 0 {
		t.Fatalf("found %d examples and %d differential suite files", len(examples), len(suite))
	}
	texts := map[string][]string{"fuzz seeds": fuzzSeeds, "edges": canonicalEdges}
	for _, p := range append(examples, suite...) {
		texts[p] = goStrings(t, p)
	}
	quickstart := filepath.Join("..", "..", "examples", "quickstart", "dashboard.flow")
	b, err := os.ReadFile(quickstart)
	if err != nil {
		t.Fatal(err)
	}
	texts[quickstart] = []string{string(b)}
	n := 0
	for p, list := range texts {
		parsed := 0
		for _, text := range list {
			f, err := Parse("oracle", text)
			if err != nil {
				continue
			}
			parsed++
			checkCanonicalText(t, f)
		}
		if parsed == 0 && !strings.HasSuffix(p, "_test.go") {
			t.Fatalf("no flow of %s parses", p)
		}
		n += parsed
	}
	t.Logf("compared %d flows", n)
	if n < 50 {
		t.Fatalf("compared %d flows, want at least 50", n)
	}
}

// FuzzCanonicalText: whenever an input parses, the file's canonical text
// and every task's text equal the oracle's. Unlike FuzzParse it asks for
// no round trip, only for the bytes the old serializer wrote.
func FuzzCanonicalText(f *testing.F) {
	for _, s := range append(canonicalEdges, fuzzSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if parsed, err := Parse("fuzz", src); err == nil {
			checkCanonicalText(t, parsed)
		}
	})
}
