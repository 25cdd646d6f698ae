package analyze

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

func lintSrc(t *testing.T, src string) *Report {
	t.Helper()
	f, err := flowfile.Parse("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	return Lint(f, Options{
		Tasks:      task.NewRegistry(),
		Connectors: connector.NewRegistry(connector.Options{DataDir: "."}),
	})
}

func findRule(r *Report, rule string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// TestRules exercises every rule family with a minimal failing flow.
func TestRules(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		rule     string
		severity Severity
		entity   string
		msgPart  string
		hintPart string
		wantLine bool
		minCount int
	}{
		{
			name: "FL000 dangling task reference",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.missing
`,
			rule: "FL000", severity: Error, msgPart: "T.missing", wantLine: true,
		},
		{
			name: "FL001 unknown task type with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupbyy
    groupby: [region]
`,
			rule: "FL001", severity: Error, entity: "T.agg",
			msgPart: "groupbyy", hintPart: `"groupby"`, wantLine: true,
		},
		{
			name: "FL002 topn without orderby_column",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.top
T:
  top:
    type: topn
    groupby: [region]
    limit: 5
`,
			rule: "FL002", severity: Error, entity: "T.top",
			msgPart: "orderby_column", hintPart: "rank rows", wantLine: true,
		},
		{
			name: "FL003 misspelled filter column with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.keep
T:
  keep:
    type: filter_by
    filter_expression: amont > 3
`,
			rule: "FL003", severity: Error, entity: "T.keep",
			msgPart: `"amont" not found`, hintPart: `"amount"`, wantLine: true,
		},
		{
			name: "FL003 source without schema",
			src: `
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL003", severity: Error, entity: "D.src",
			msgPart: "no declared schema", wantLine: true,
		},
		{
			name: "FL004 number compared with text",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg | T.keep
T:
  agg:
    type: groupby
    groupby: [region]
  keep:
    type: filter_by
    filter_expression: count > 'many'
`,
			rule: "FL004", severity: Warning, entity: "T.keep",
			msgPart: "compares count (number) with 'many' (text)", wantLine: true,
		},
		{
			name: "FL010 dead computed sink",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
  D.tmp: D.src | T.agg2
T:
  agg:
    type: groupby
    groupby: [region]
  agg2:
    type: groupby
    groupby: [region]
`,
			rule: "FL010", severity: Warning, entity: "D.tmp",
			msgPart: "never read", wantLine: true,
		},
		{
			name: "FL010 dead declared source",
			src: `
D:
  src: [region, amount]
  spare: [a, b]
D.src:
  source: mem:src.csv
D.spare:
  source: mem:spare.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL010", severity: Warning, entity: "D.spare",
			msgPart: "never read", wantLine: true,
		},
		{
			name: "FL011 unused task",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
  leftover:
    type: filter_by
    filter_expression: amount > 0
`,
			rule: "FL011", severity: Warning, entity: "T.leftover", wantLine: true,
		},
		{
			name: "FL012 widget off the layout",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
W:
  shown:
    type: Pie
    source: D.out
    text: region
    size: count
  hidden:
    type: Pie
    source: D.out
    text: region
    size: count
L:
  rows:
    - [span12: W.shown]
`,
			rule: "FL012", severity: Warning, entity: "W.hidden", wantLine: true,
		},
		{
			name: "FL020 aggregate output collides with group key",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: region
`,
			rule: "FL020", severity: Error, entity: "T.agg",
			msgPart: "duplicate column", wantLine: true,
		},
		{
			name: "FL021 join keys of different types",
			src: `
D:
  src: [region, amount]
  other: [body]
  left: [region, count]
  right: [body, word]
D.src:
  source: mem:src.csv
D.other:
  source: mem:other.csv
F:
  D.left: D.src | T.agg
  D.right: D.other | T.upper_word
  +D.joined: (D.left, D.right) | T.j
T:
  agg:
    type: groupby
    groupby: [region]
  upper_word:
    type: map
    operator: upper
    transform: body
    output: word
  j:
    type: join
    left: left by count
    right: right by word
`,
			rule: "FL021", severity: Warning, entity: "T.j",
			msgPart: "different types", wantLine: true,
		},
		{
			name: "FL030 unknown widget type with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
W:
  chart:
    type: BubleChart
    source: D.out
    text: region
    size: count
L:
  rows:
    - [span12: W.chart]
`,
			rule: "FL030", severity: Error, entity: "W.chart",
			msgPart: "BubleChart", hintPart: `"BubbleChart"`, wantLine: true,
		},
		{
			name: "FL031 unknown widget property with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
W:
  chart:
    type: Pie
    source: D.out
    txt: region
    size: count
L:
  rows:
    - [span12: W.chart]
`,
			rule: "FL031", severity: Warning, entity: "W.chart",
			msgPart: `"txt"`, hintPart: `"text"`, wantLine: true,
		},
		{
			name: "FL032 missing required data attribute",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
W:
  chart:
    type: Pie
    source: D.out
    text: region
L:
  rows:
    - [span12: W.chart]
`,
			rule: "FL032", severity: Error, entity: "W.chart",
			msgPart: `requires data attribute "size"`, wantLine: true,
		},
		{
			name: "FL033 data attribute bound to missing column",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
W:
  chart:
    type: Pie
    source: D.out
    text: regon
    size: count
L:
  rows:
    - [span12: W.chart]
`,
			rule: "FL033", severity: Error, entity: "W.chart",
			msgPart: `"regon"`, hintPart: `"region"`, wantLine: true,
		},
		{
			name: "FL040 unknown protocol with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: src.csv
  protocol: files
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL040", severity: Error, entity: "D.src",
			msgPart: `"files"`, hintPart: `"file"`, wantLine: true,
		},
		{
			name: "FL041 unknown data property with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  formt: csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL041", severity: Warning, entity: "D.src",
			msgPart: `"formt"`, hintPart: `"format"`, wantLine: true,
		},
		{
			name: "FL042 misspelled on_error mode with hint",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  on_error: stael
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL042", severity: Error, entity: "D.src",
			msgPart: `"stael"`, hintPart: `"stale"`, wantLine: true,
		},
		{
			name: "FL042 timeout without a unit",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  timeout: 30
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL042", severity: Error, entity: "D.src",
			msgPart: `"30"`, hintPart: `"30s"`, wantLine: true,
		},
		{
			name: "FL042 negative retries",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  retries: -1
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`,
			rule: "FL042", severity: Error, entity: "D.src",
			msgPart: "non-negative", wantLine: true,
		},
		{
			name: "FL050 filter blocked behind a producing stage",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg | T.keep
T:
  agg:
    type: groupby
    groupby: [region]
  keep:
    type: filter_by
    filter_expression: count > 3
`,
			rule: "FL050", severity: Info, entity: "T.keep",
			msgPart: "cannot be pushed ahead of T.agg", wantLine: true,
		},
		{
			name: "FL051 topn ordered by its own group key",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.top
T:
  top:
    type: topn
    groupby: [region]
    orderby_column: [region DESC]
    limit: 5
`,
			rule: "FL051", severity: Info, entity: "T.top",
			msgPart: "grouping key", wantLine: true,
		},
		{
			name: "FL051 sort feeding a limit",
			src: `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.bysize | T.first10
T:
  bysize:
    type: sort
    orderby_column: [amount DESC]
  first10:
    type: limit
    limit: 10
`,
			rule: "FL051", severity: Info, entity: "T.bysize",
			msgPart: "topn task computes the same result", wantLine: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			report := lintSrc(t, tc.src)
			got := findRule(report, tc.rule)
			if len(got) == 0 {
				t.Fatalf("no %s finding; report:\n%s", tc.rule, renderReport(report))
			}
			f := got[0]
			if tc.entity != "" {
				f = Finding{}
				for _, cand := range got {
					if cand.Entity == tc.entity {
						f = cand
						break
					}
				}
				if f.Rule == "" {
					t.Fatalf("no %s finding for %s; report:\n%s", tc.rule, tc.entity, renderReport(report))
				}
			}
			if f.Severity != tc.severity {
				t.Errorf("severity = %s, want %s", f.Severity, tc.severity)
			}
			if tc.msgPart != "" && !strings.Contains(f.Message, tc.msgPart) {
				t.Errorf("message = %q, want it to contain %q", f.Message, tc.msgPart)
			}
			if tc.hintPart != "" && !strings.Contains(f.Hint, tc.hintPart) {
				t.Errorf("hint = %q, want it to contain %q", f.Hint, tc.hintPart)
			}
			if tc.wantLine && f.Line == 0 {
				t.Errorf("finding has no line: %s", f)
			}
			if tc.minCount > 0 && len(got) < tc.minCount {
				t.Errorf("got %d %s findings, want at least %d", len(got), tc.rule, tc.minCount)
			}
		})
	}
}

func renderReport(r *Report) string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCleanFlowHasNoFindings pins the zero-noise property: a wired-up
// dashboard lints clean.
func TestCleanFlowHasNoFindings(t *testing.T) {
	const src = `
D:
  src: [region, amount]

D.src:
  source: mem:src.csv
  format: csv

F:
  +D.out: D.src | T.agg

T:
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total

W:
  chart:
    type: Pie
    source: D.out
    text: region
    size: total

L:
  rows:
    - [span12: W.chart]
`
	report := lintSrc(t, src)
	if len(report.Findings) != 0 {
		t.Fatalf("want a clean report, got:\n%s", renderReport(report))
	}
}

// TestFindingString pins the rendered form the CLI prints.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "FL003", Severity: Error, Entity: "T.keep", Line: 12,
		Message: `column "amont" not found`, Hint: `did you mean "amount"?`}
	want := `FL003 error: T.keep (line 12): column "amont" not found — did you mean "amount"?`
	if f.String() != want {
		t.Fatalf("String() = %q, want %q", f.String(), want)
	}
}

// TestGoldenIPLExample lints the shipped §3.7 example dashboards — both
// the data-processing and the data-consumption flow must stay clean, so
// the linter never nags about idiomatic files.
func TestGoldenIPLExample(t *testing.T) {
	src, err := os.ReadFile("../../examples/ipl/main.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?s)const (processingFlow|consumptionFlow) = `(.*?)`")
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) != 2 {
		t.Fatalf("found %d flow constants in examples/ipl/main.go, want 2", len(matches))
	}
	for _, m := range matches {
		name, flow := m[1], m[2]
		t.Run(name, func(t *testing.T) {
			report := lintSrc(t, flow)
			if len(report.Findings) != 0 {
				t.Fatalf("examples/ipl %s lints dirty:\n%s", name, renderReport(report))
			}
		})
	}
}

// TestLintToleratesBrokenFiles pins that Lint never panics and keeps
// reporting whatever it can on structurally damaged input — including,
// from the same graph a broken flow left unresolved, the dead-entity and
// dead-column findings of the healthy flows beside it.
func TestLintToleratesBrokenFiles(t *testing.T) {
	srcs := []string{
		"",
		"D:\n  x: [a]\n",
		"F:\n  +D.out: D.ghost | T.ghost\n",
		"W:\n  w:\n    type: Nope\n",
		"L:\n  rows:\n    - [span12: W.nobody]\n",
	}
	for _, src := range srcs {
		f, err := flowfile.Parse("broken", src)
		if err != nil {
			continue
		}
		_ = Lint(f, Options{Tasks: task.NewRegistry()})
	}
	report := lintSrc(t, `
D:
  src: [region, amount]
  idle: [x]
D.src:
  source: mem:src.csv
F:
  +D.broken: D.src | T.agg_typo
  D.behind: D.broken | T.keep
  D.scratch: D.src | T.keep
  +D.out: D.src | T.double | T.agg
T:
  agg_typo:
    type: groupby
    groupby: [regon]
  keep:
    type: filter_by
    filter_expression: amount > 3
  double:
    type: map
    operator: expr
    expression: amount * 2
    output: twice
  agg:
    type: groupby
    groupby: [region]
  spare:
    type: limit
    limit: 1
`)
	want := map[string]string{ // rule -> entity
		"FL003": "T.agg_typo", // the broken flow, reported once
		"FL011": "T.spare",
		"FL064": "T.double",
	}
	for rule, entity := range want {
		if fs := findRule(report, rule); len(fs) != 1 || fs[0].Entity != entity {
			t.Errorf("%s findings = %v, want one on %s\n%s", rule, fs, entity, renderReport(report))
		}
	}
	dead := map[string]bool{}
	for _, fd := range findRule(report, "FL010") {
		dead[fd.Entity] = true
	}
	if !dead["D.idle"] || !dead["D.scratch"] || !dead["D.behind"] || dead["D.broken"] {
		t.Errorf("FL010 on %v\n%s", dead, renderReport(report))
	}
}

// TestLintReportsWhatBuildRejects: the three files lint used to call
// clean while plan and run rejected them. Lint reads the resolver's own
// graph now, so each is an error finding carrying the resolver's message,
// attributed where the run-time diagnostic points.
func TestLintReportsWhatBuildRejects(t *testing.T) {
	const keep = "T:\n  keep:\n    type: filter_by\n    filter_expression: x > 0\n"
	cases := []struct {
		name, src, entity, message string
		line                       int
	}{
		{"cycle", "D:\n  a: [x]\nF:\n  D.a: D.b | T.keep\n  D.b: D.a | T.keep\n" + keep,
			"D.a", "flows form a cycle through D.a, D.b", 2},
		{"schema drift", `
D:
  sales: [region, amount]
  by_region: [region, totl]
F:
  +D.by_region: D.sales | T.g
T:
  g:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`, "D.by_region", "declared schema [region, totl] but its flow produces [region, total]", 4},
		{"fan-in without task", "D:\n  sales: [x]\n  other: [x]\nF:\n  +D.both: (D.sales, D.other)\n",
			"D.both", "fan-in of 2 inputs needs at least one task", 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := flowfile.Parse("demo", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dag.Build(f, task.NewRegistry(), nil); err == nil || !strings.HasSuffix(err.Error(), tc.message) {
				t.Fatalf("Build error = %v, want it to end in %q", err, tc.message)
			}
			report := lintSrc(t, tc.src)
			want := Finding{Rule: "FL000", Severity: Error, Entity: tc.entity, Line: tc.line, Message: tc.message}
			if len(report.Findings) != 1 || report.Findings[0] != want {
				t.Fatalf("findings:\n%s\nwant only:\n%s", renderReport(report), want)
			}
		})
	}
}

// TestWidgetSourceProblemsReported: a widget source resolves through the
// same resolver, so what Compile rejects about it is a finding too — a
// stage that does not bind on the task, a task-less fan-in on the widget.
func TestWidgetSourceProblemsReported(t *testing.T) {
	report := lintSrc(t, `
D:
  a: [x]
  b: [x]
W:
  both:
    type: Grid
    source: (D.a, D.b)
  grouped:
    type: Grid
    source: D.a | T.g
T:
  g:
    type: groupby
    groupby: [y]
`)
	if fs := findRule(report, "FL000"); len(fs) != 1 || fs[0].Entity != "W.both" || fs[0].Message != "fan-in of 2 inputs needs at least one task" {
		t.Errorf("FL000 = %v\n%s", fs, renderReport(report))
	}
	if fs := findRule(report, "FL003"); len(fs) != 1 || fs[0].Entity != "T.g" || fs[0].Hint != `did you mean "x"?` {
		t.Errorf("FL003 = %v\n%s", fs, renderReport(report))
	}
}

// TestRuleChosenByKindNotText: a finding's rule follows the resolver
// problem's kind. A missing column that happens to be named "duplicate
// column" is still a missing column (FL003, with the did-you-mean), and a
// user task whose parser's message mentions "unknown type" is still a
// configuration error of a known type (FL002).
func TestRuleChosenByKindNotText(t *testing.T) {
	reg := task.NewRegistry()
	if err := reg.Register("probe", func(*flowfile.Node) (task.Spec, error) {
		return nil, fmt.Errorf("probe: unknown type of sensor")
	}); err != nil {
		t.Fatal(err)
	}
	f, err := flowfile.Parse("demo", `
D:
  src: [region, "duplicate columns"]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
  +D.probed: D.src | T.probe
T:
  agg:
    type: groupby
    groupby: [duplicate column]
  probe:
    type: probe
`)
	if err != nil {
		t.Fatal(err)
	}
	report := Lint(f, Options{Tasks: reg})
	if fs := findRule(report, "FL003"); len(fs) != 1 || fs[0].Entity != "T.agg" || fs[0].Hint != `did you mean "duplicate columns"?` {
		t.Errorf("FL003 = %v\n%s", fs, renderReport(report))
	}
	if fs := findRule(report, "FL002"); len(fs) != 1 || fs[0].Entity != "T.probe" || !strings.Contains(fs[0].Message, "unknown type of sensor") {
		t.Errorf("FL002 = %v\n%s", fs, renderReport(report))
	}
	if fs := append(findRule(report, "FL020"), findRule(report, "FL001")...); len(fs) != 0 {
		t.Errorf("misfiled by message text: %v", fs)
	}
}

// TestResilienceFindingsNotDuplicatedAsFL000 pins the dedup: a bad
// on_error value is a hard Validate error and an FL042 lint finding,
// but the report must show it once (as FL042, which carries the hint).
func TestResilienceFindingsNotDuplicatedAsFL000(t *testing.T) {
	report := lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  on_error: stael
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`)
	if got := findRule(report, "FL042"); len(got) != 1 {
		t.Fatalf("FL042 findings = %d, want 1; report:\n%s", len(got), renderReport(report))
	}
	if got := findRule(report, "FL000"); len(got) != 0 {
		t.Fatalf("bad on_error duplicated as FL000; report:\n%s", renderReport(report))
	}
}

// TestColumnarFindingsNotDuplicatedAsFL000 pins the same dedup for the
// columnar detail: a bad columnar: value surfaces once, as FL043.
func TestColumnarFindingsNotDuplicatedAsFL000(t *testing.T) {
	report := lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  columnar: never
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`)
	if got := findRule(report, "FL043"); len(got) != 1 {
		t.Fatalf("FL043 findings = %d, want 1; report:\n%s", len(got), renderReport(report))
	}
	if got := findRule(report, "FL000"); len(got) != 0 {
		t.Fatalf("bad columnar duplicated as FL000; report:\n%s", renderReport(report))
	}
}

// TestConstantFilterVerdicts pins FL063: provably-constant filter
// predicates are reported with their direction.
func TestConstantFilterVerdicts(t *testing.T) {
	report := lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.nothing
T:
  nothing:
    type: filter_by
    filter_expression: 1 > 2
`)
	got := findRule(report, "FL063")
	if len(got) != 1 || !strings.Contains(got[0].Message, "provably false") {
		t.Fatalf("FL063 = %v; report:\n%s", got, renderReport(report))
	}

	report = lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.everything
T:
  everything:
    type: filter_by
    filter_expression: 1 == 1 or region == 'east'
`)
	got = findRule(report, "FL063")
	if len(got) != 1 || !strings.Contains(got[0].Message, "provably true") {
		t.Fatalf("FL063 = %v; report:\n%s", got, renderReport(report))
	}
}

// TestDeadComputedColumn pins FL064: a computed column nothing reads is
// reported; the same column becomes clean once a widget consumes the
// producing object (widget demand is conservatively all-columns).
func TestDeadComputedColumn(t *testing.T) {
	const flow = `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  D.mid: D.src | T.extra
  +D.out: D.mid | T.agg
T:
  extra:
    type: map
    operator: expr
    expression: amount * 2
    output: unused_double
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`
	report := lintSrc(t, flow)
	got := findRule(report, "FL064")
	if len(got) != 1 || !strings.Contains(got[0].Message, `"unused_double"`) {
		t.Fatalf("FL064 = %v; report:\n%s", got, renderReport(report))
	}

	// A widget on D.mid consumes every column: the finding must vanish.
	report = lintSrc(t, flow+`
W:
  peek:
    type: table
    source: D.mid
`)
	if got := findRule(report, "FL064"); len(got) != 0 {
		t.Fatalf("FL064 fired despite widget consumer; report:\n%s", renderReport(report))
	}
}

// TestMapExprUnknownColumn pins the fuzzer-found gap: a map expression
// naming a missing column must fail lint (FL003), not compile and then
// die at run time.
func TestMapExprUnknownColumn(t *testing.T) {
	report := lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.bad
T:
  bad:
    type: map
    operator: expr
    expression: amonut * 2
    output: double
`)
	got := findRule(report, "FL003")
	if len(got) != 1 || got[0].Severity != Error {
		t.Fatalf("FL003 = %v; report:\n%s", got, renderReport(report))
	}
	if !strings.Contains(got[0].Hint, `"amount"`) {
		t.Fatalf("missing did-you-mean hint: %v", got[0])
	}
}

// TestSeverityGate pins the lint -fail-on contract helpers.
func TestSeverityGate(t *testing.T) {
	r := &Report{Findings: []Finding{{Rule: "FL051", Severity: Info}, {Rule: "FL004", Severity: Warning}}}
	if r.HasAtLeast(Error) {
		t.Errorf("HasAtLeast(Error) true without errors")
	}
	if !r.HasAtLeast(Warning) || !r.HasAtLeast(Info) {
		t.Errorf("HasAtLeast misses warning/info findings")
	}
	if s, ok := ParseSeverity("warning"); !ok || s != Warning {
		t.Errorf("ParseSeverity(warning) = %v, %v", s, ok)
	}
	if _, ok := ParseSeverity("fatal"); ok {
		t.Errorf("ParseSeverity accepted junk")
	}
}

// TestFactsExport pins the stable Facts contract on a small typed flow:
// inferred types, the propagated constant, the row bound from limit, and
// the fetched-but-unused source column.
func TestFactsExport(t *testing.T) {
	f, err := flowfile.Parse("demo", `
D:
  src: [region, amount, junk]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.tag | T.keep | T.cut
T:
  tag:
    type: map
    operator: constant
    output: label
    value: "42"
  keep:
    type: project
    columns: [region, amount, label]
  cut:
    type: limit
    limit: 10
`)
	if err != nil {
		t.Fatal(err)
	}
	report, facts := LintWithFacts(f, Options{
		Tasks:      task.NewRegistry(),
		Connectors: connector.NewRegistry(connector.Options{DataDir: "."}),
		SourceScopes: map[string]flowcheck.Scope{"src": {
			"region": {Type: flowcheck.Type{Kind: flowcheck.KString}},
			"amount": {Type: flowcheck.Type{Kind: flowcheck.KInt, Nullable: true}},
			"junk":   {Type: flowcheck.Type{Kind: flowcheck.KString}},
		}},
	})
	if report.HasErrors() {
		t.Fatalf("unexpected errors:\n%s", renderReport(report))
	}
	out := facts.Objects["out"]
	if out == nil {
		t.Fatalf("no facts for D.out; have %v", facts.Objects)
	}
	if out.Producer != "T.cut" {
		t.Errorf("producer = %q, want T.cut", out.Producer)
	}
	if out.Card.Unbounded || out.Card.Max != 10 {
		t.Errorf("card = %+v, want max 10", out.Card)
	}
	if got := out.Columns["label"]; got.Type != "int" || got.Const == nil || *got.Const != "42" {
		t.Errorf("label facts = %+v, want const int 42", got)
	}
	if got := out.Columns["amount"]; got.Type != "int?" {
		t.Errorf("amount type = %q, want int?", got.Type)
	}
	var sawJunk bool
	for _, d := range facts.Dead {
		if d.Object == "src" && d.Column == "junk" && !d.Computed {
			sawJunk = true
		}
	}
	if !sawJunk {
		t.Errorf("fetched-but-unused src.junk not in dead facts: %+v", facts.Dead)
	}
}

// TestCacheFindingsNotDuplicatedAsFL000 pins the same dedup for the
// admission details: a bad cache: value surfaces once, as FL045 with
// its did-you-mean hint, never as a generic FL000 copy.
func TestCacheFindingsNotDuplicatedAsFL000(t *testing.T) {
	report := lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  cache: of
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`)
	got := findRule(report, "FL045")
	if len(got) != 1 {
		t.Fatalf("FL045 findings = %d, want 1; report:\n%s", len(got), renderReport(report))
	}
	if !strings.Contains(got[0].Hint, `"off"`) {
		t.Errorf("FL045 hint = %q, want did-you-mean off", got[0].Hint)
	}
	if dup := findRule(report, "FL000"); len(dup) != 0 {
		t.Fatalf("bad cache duplicated as FL000; report:\n%s", renderReport(report))
	}
}

// TestMaxRowsFindingNotDuplicated covers the numeric half of FL045.
func TestMaxRowsFindingNotDuplicated(t *testing.T) {
	report := lintSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
  max_rows: lots
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
`)
	if got := findRule(report, "FL045"); len(got) != 1 {
		t.Fatalf("FL045 findings = %d, want 1; report:\n%s", len(got), renderReport(report))
	}
	if got := findRule(report, "FL000"); len(got) != 0 {
		t.Fatalf("bad max_rows duplicated as FL000; report:\n%s", renderReport(report))
	}
}
