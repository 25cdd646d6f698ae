package dashboard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/widget"
)

// lintAgrees checks the contract between lint and compile on one flow
// file: when Prepare refuses it, the lint over the same analysis has an
// error. The one exception is FuzzLint's: an object with no schema
// anywhere, which lint assumes is a shared publication (FL003 warning).
// It returns the report and the compile error.
func lintAgrees(t *testing.T, p *Platform, f *flowfile.File) (*analyze.Report, error) {
	t.Helper()
	prog, a := p.Prepare(f)
	report := a.Lint(prog.Problems, analyze.PlatformOptions(p.Tasks, p.Connectors, p.Catalog))
	err := prog.Err()
	var pr *dag.Problem
	if err != nil && !report.HasErrors() && !(errors.As(err, &pr) && pr.Kind == dag.ProblemUnresolvable) {
		t.Fatalf("compile rejects what lint passes: %v\nfindings: %v\nflow:\n%s", err, report.Findings, f)
	}
	return report, err
}

// widgetFlow is a flow whose one widget, W.w, has the given type and
// lines; its source D.src has a column named after every data attribute
// of every built-in type.
func widgetFlow(typ string, lines ...string) string {
	var b strings.Builder
	b.WriteString("D:\n  src: [x, y, text, size, legend_text, serie, color]\n\nD.src:\n  source: data:src.csv\n  format: csv\n\nW:\n  w:\n")
	fmt.Fprintf(&b, "    type: %s\n", typ)
	for _, l := range lines {
		fmt.Fprintf(&b, "    %s\n", l)
	}
	return b.String()
}

// TestLintAgreesWithCompileOnWidgets builds, for every registered widget
// type, each way a definition can be refused — unknown type, each
// required attribute missing, no source, a tag that is not a plain
// element — and checks that lint reports an error on the widget whenever
// Prepare refuses the file, and that Prepare refuses exactly the shapes
// widget.Check condemns.
func TestLintAgreesWithCompileOnWidgets(t *testing.T) {
	p := NewPlatform()
	type shape struct {
		name  string
		src   string
		fails bool
	}
	var shapes []shape
	for _, typ := range widget.Types() {
		desc, _ := widget.Lookup(typ)
		var binds []string
		for _, a := range desc.DataAttrs {
			binds = append(binds, a.Name+": "+a.Name)
		}
		src := append([]string{"source: D.src"}, binds...)
		shapes = append(shapes,
			shape{typ + "/ok", widgetFlow(typ, src...), false},
			shape{typ + "/unknown type", widgetFlow(typ+"x", src...), true},
			shape{typ + "/no source", widgetFlow(typ, binds...), desc.NeedsSource})
		for i, a := range desc.DataAttrs {
			if a.Required {
				missing := append(append([]string{"source: D.src"}, binds[:i]...), binds[i+1:]...)
				shapes = append(shapes, shape{typ + "/missing " + a.Name, widgetFlow(typ, missing...), true})
			}
		}
		for _, tag := range []string{"script", "style", "iframe", "Div"} {
			shapes = append(shapes, shape{typ + "/tag " + tag, widgetFlow(typ, append(src, "tag: "+tag)...), typ == "HTML"})
		}
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			f, err := flowfile.Parse("w", s.src)
			if err != nil {
				t.Fatal(err)
			}
			report, err := lintAgrees(t, p, f)
			if (err != nil) != s.fails {
				t.Fatalf("Prepare error = %v, want failure %v\nflow:\n%s", err, s.fails, s.src)
			}
			if err == nil {
				return
			}
			for _, fd := range report.Findings {
				if fd.Severity == analyze.Error && fd.Entity == "W.w" {
					return
				}
			}
			t.Fatalf("compile rejects W.w (%v) but lint has no error on it: %v", err, report.Findings)
		})
	}
}

// FuzzLintAgreesWithCompile is FuzzLint's agreement property taken to
// the whole compile: on any flow file that parses, whenever Prepare
// refuses it (validation, the resolver, a widget's definition or
// source), the lint over the same analysis has an error, with FuzzLint's
// shared-publication exception. It is seeded with FuzzLint's seeds plus
// one widget seed per widget.Check fault kind.
func FuzzLintAgreesWithCompile(f *testing.F) {
	f.Add("D:\n  a: [x, y]\nF:\n  +D.o: D.a | T.t\nT:\n  t:\n    type: groupby\n    groupby: [x]\n")
	f.Add("F:\n  +D.o: (D.a, D.b) | T.t\n")
	f.Add("T:\n  t:\n    type: filter_by\n    filter_expression: a > 'b'\n")
	f.Add("W:\n  w:\n    type: Pie\n    source: D.a\n    text: x\n")
	f.Add("L:\n  rows:\n    - [span3: W.w]\n")
	f.Add("D.x:\n  source: 'a:b#c'\n  protocol: nope\n")
	f.Add("T:\n  t:\n    type: topn\n    groupby: [x]\n    limit: 5\n")
	f.Add("T:\n  p:\n    type: parallel\n    parallel: [T.p]\n")
	f.Add("D:\n  a: [x]\nF:\n  D.a: D.b | T.t\n  D.b: D.a | T.t\nT:\n  t:\n    type: distinct\n")
	f.Add("D:\n  a: [x]\n  o: [y]\nF:\n  +D.o: D.a | T.t\nT:\n  t:\n    type: distinct\n")
	f.Add("D:\n  a: [x]\n  b: [x]\nF:\n  +D.o: (D.a, D.b)\n")
	f.Add(widgetFlow("Pi", "source: D.src", "text: text", "size: size"))
	f.Add(widgetFlow("Pie", "source: D.src", "text: text"))
	f.Add(widgetFlow("Grid"))
	f.Add(widgetFlow("HTML", "source: D.src", "tag: script"))
	p := NewPlatform()
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := flowfile.Parse("fuzz", src)
		if err != nil {
			return
		}
		lintAgrees(t, p, parsed)
	})
}

// TestJoinAmbiguousProjectSource: a join project source that reads a
// column of both sides (a_b_x: a.b_x and a_b.x) does not compile — it
// used to run, silently reading the right side — and lint reports it as
// the FL003 error the compile refuses it with.
func TestJoinAmbiguousProjectSource(t *testing.T) {
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{
		"a.csv":   []byte("1,LEFT\n"),
		"a_b.csv": []byte("1,RIGHT\n"),
	}})
	f, err := flowfile.Parse("ambiguous", `
D:
  a: [k, b_x]
  a_b: [k, x]

D.a:
  source: mem:a.csv
  format: csv

D.a_b:
  source: mem:a_b.csv
  format: csv

F:
  +D.o: (D.a, D.a_b) | T.j

T:
  j:
    type: join
    left: a by k
    right: a_b by k
    project:
      a_k: key
      a_b_x: picked
`)
	if err != nil {
		t.Fatal(err)
	}
	report, err := lintAgrees(t, p, f)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("compile error = %v, want the ambiguous project source", err)
	}
	for _, fd := range report.Findings {
		if fd.Rule == "FL003" && fd.Severity == analyze.Error && fd.Entity == "T.j" && strings.Contains(fd.Message, `D.a column "b_x"`) {
			return
		}
	}
	t.Fatalf("no FL003 error on T.j naming both readings: %v", report.Findings)
}

// TestMapExpressionRequiresColumns: a map expression that reads a column
// its input lacks is refused when the program is prepared, as a filter
// expression's is — plan, explain and compile refuse it, not only run —
// and lint reports it as the resolver's FL003.
func TestMapExpressionRequiresColumns(t *testing.T) {
	f, err := flowfile.Parse("badmap", `
D:
  sales: [region, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  +D.out: D.sales | T.double

T:
  double:
    type: map
    operator: expr
    expression: nope * 2
    output: doubled
`)
	if err != nil {
		t.Fatal(err)
	}
	report, err := lintAgrees(t, NewPlatform(), f)
	var pr *dag.Problem
	if !errors.As(err, &pr) || pr.Kind != dag.ProblemMissingColumn || pr.Entity != "T.double" || pr.Column != "nope" {
		t.Fatalf("Prepare: %v, want the missing column \"nope\" of T.double", err)
	}
	if fl := report.Findings; len(fl) != 1 || fl[0].Rule != "FL003" || fl[0].Entity != "T.double" {
		t.Errorf("lint findings %v, want one FL003 on T.double", fl)
	}
}
