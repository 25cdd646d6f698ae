package analyze

import (
	"errors"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// FuzzLint drives the analyzer with arbitrary flow-file text. The
// contract: on any input that parses, Lint never panics, every finding
// carries a rule ID and a severity that renders, and lint agrees with the
// resolver a run uses: whenever dag.Build rejects the file, some finding
// is an error. The one documented exception is an object with no schema
// anywhere, which lint assumes is a shared publication (FL003 warning).
func FuzzLint(f *testing.F) {
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
	reg := task.NewRegistry()
	conns := connector.NewRegistry(connector.Options{DataDir: "."})
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := flowfile.Parse("fuzz", src)
		if err != nil {
			return
		}
		report := Lint(parsed, Options{Tasks: reg, Connectors: conns})
		var p *dag.Problem
		if _, err := dag.Build(parsed, reg, nil); errors.As(err, &p) && p.Kind != dag.ProblemUnresolvable && !report.HasErrors() {
			t.Fatalf("Build rejects what lint passes: %v\nfindings: %v", err, report.Findings)
		}
		for _, fd := range report.Findings {
			if fd.Rule == "" {
				t.Fatalf("finding without a rule ID: %#v", fd)
			}
			if fd.String() == "" {
				t.Fatalf("finding renders empty: %#v", fd)
			}
		}
	})
}
