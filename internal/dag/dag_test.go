package dag

import (
	"reflect"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

func build(t *testing.T, src string, shared SharedResolver) *Graph {
	t.Helper()
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(f, task.NewRegistry(), shared)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const chainFlow = `
D:
  raw: [a, b, v]

F:
  D.mid: D.raw | T.f
  +D.out: D.mid | T.g

T:
  f:
    type: filter_by
    filter_expression: v > 0
  g:
    type: groupby
    groupby: [a]
`

func TestTopologicalOrder(t *testing.T) {
	g := build(t, chainFlow, nil)
	pos := map[string]int{}
	for i, n := range g.Order {
		pos[n] = i
	}
	if !(pos["raw"] < pos["mid"] && pos["mid"] < pos["out"]) {
		t.Errorf("order = %v", g.Order)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != "raw" {
		t.Errorf("sources = %v", got)
	}
	if got := g.Endpoints(); len(got) != 1 || got[0] != "out" {
		t.Errorf("endpoints = %v", got)
	}
}

func TestSchemaResolution(t *testing.T) {
	g := build(t, chainFlow, nil)
	if got := g.Nodes["mid"].Schema.String(); got != "[a, b, v]" {
		t.Errorf("mid schema = %s", got)
	}
	if got := g.Nodes["out"].Schema.String(); got != "[a, count]" {
		t.Errorf("out schema = %s", got)
	}
}

func TestDeclaredSchemaCrossCheck(t *testing.T) {
	// Declaring a wrong schema for a produced sink is caught.
	src := strings.Replace(chainFlow, "D:\n  raw: [a, b, v]",
		"D:\n  raw: [a, b, v]\n  out: [a, wrong]", 1)
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(f, task.NewRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "declared schema") {
		t.Errorf("cross-check error = %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	src := `
D:
  a: [x]

F:
  D.b: D.c | T.f
  D.c: D.b | T.f

T:
  f:
    type: filter_by
    filter_expression: x > 0
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(f, task.NewRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle error = %v", err)
	}
}

func TestSharedResolution(t *testing.T) {
	src := `
F:
  +D.out: D.published_thing | T.g

T:
  g:
    type: groupby
    groupby: [k]
`
	shared := func(name string) (*schema.Schema, bool) {
		if name == "published_thing" {
			return schema.MustFromNames("k", "v"), true
		}
		return nil, false
	}
	g := build(t, src, shared)
	if !g.Nodes["published_thing"].Shared {
		t.Error("shared node not marked")
	}
	if got := g.Nodes["out"].Schema.String(); got != "[k, count]" {
		t.Errorf("out schema = %s", got)
	}
	// Without the resolver the same file fails.
	f, _ := flowfile.Parse("t", src)
	if _, err := Build(f, task.NewRegistry(), nil); err == nil {
		t.Error("unresolvable shared input should fail")
	}
}

func TestDuplicateProducerRejected(t *testing.T) {
	src := `
D:
  raw: [a]

F:
  D.out: D.raw | T.f
  D.out: D.raw | T.f

T:
  f:
    type: filter_by
    filter_expression: a > 0
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(f, task.NewRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "two flows") {
		t.Errorf("duplicate producer error = %v", err)
	}
}

func TestDeadSinks(t *testing.T) {
	src := `
D:
  raw: [a]

F:
  +D.kept: D.raw | T.f
  D.dead1: D.raw | T.f
  D.dead2: D.dead1 | T.f
  D.published: D.raw | T.f

D.published:
  publish: keepme

W:
  chart:
    type: Grid
    source: D.widget_feed

F:
  D.widget_feed: D.raw | T.f

T:
  f:
    type: filter_by
    filter_expression: a > 0
`
	g := build(t, src, nil)
	dead := g.DeadSinks()
	want := map[string]bool{"dead1": true, "dead2": true}
	if len(dead) != 2 {
		t.Fatalf("dead = %v", dead)
	}
	for _, d := range dead {
		if !want[d] {
			t.Errorf("unexpected dead sink %q", d)
		}
	}
}

func TestWidgetSourceSplitsAtInteraction(t *testing.T) {
	reg := task.NewRegistry()
	src := `
T:
  static_group:
    type: groupby
    groupby: [k]
  pick:
    type: filter_by
    filter_by: [k]
    filter_source: W.list
  agg:
    type: groupby
    groupby: [k]
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	var specs []task.Spec
	for _, name := range []string{"static_group", "pick", "agg"} {
		parsed, failed := reg.Parse(f)
		sp, err := parsed[name], failed[name]
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	server, client := WidgetSource(specs)
	if len(server) != 1 || len(client) != 2 {
		t.Errorf("split = %d server, %d client", len(server), len(client))
	}
	// All-static pipeline: everything server-side.
	server, client = WidgetSource([]task.Spec{specs[0], specs[2]})
	if len(server) != 2 || len(client) != 0 {
		t.Errorf("static split = %d/%d", len(server), len(client))
	}
	// Interaction-first pipeline: everything client-side.
	server, client = WidgetSource([]task.Spec{specs[1], specs[2]})
	if len(server) != 0 || len(client) != 2 {
		t.Errorf("interactive split = %d/%d", len(server), len(client))
	}
}

// TestHoistFilters covers the one hoisting pass from both sides: the
// order dag.Optimize and the widget-source compile execute, and the
// blocked report lint rule FL050 prints.
func TestHoistFilters(t *testing.T) {
	reg := task.NewRegistry()
	f, err := flowfile.Parse("t", `
T:
  add_col:
    type: map
    operator: expr
    expression: v * 2
    output: doubled
  upper:
    type: map
    operator: upper
    transform: txt
  agg:
    type: groupby
    groupby: [v]
  keep:
    type: filter_by
    filter_expression: v > 0
  keep_doubled:
    type: filter_by
    filter_expression: doubled > 10
  inter:
    type: filter_by
    filter_by: [v]
    filter_source: W.w
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		in      []string
		want    []string
		blocked []BlockedFilter
	}{
		{name: "a filter on v commutes past a map producing doubled",
			in: []string{"add_col", "keep"}, want: []string{"keep", "add_col"}},
		{name: "a filter on doubled depends on the map and stays put",
			in: []string{"add_col", "keep_doubled"}, want: []string{"add_col", "keep_doubled"},
			blocked: []BlockedFilter{{Index: 1, Blocker: 0, Columns: []string{"doubled"}}}},
		{name: "interaction filters never move and are never reported",
			in: []string{"add_col", "inter"}, want: []string{"add_col", "inter"}},
		{name: "a non-map stage blocks without naming columns",
			in: []string{"agg", "keep"}, want: []string{"agg", "keep"},
			blocked: []BlockedFilter{{Index: 1, Blocker: 0}}},
		{name: "a filter can move part of the way and still be blocked",
			in: []string{"add_col", "upper", "keep_doubled"}, want: []string{"add_col", "keep_doubled", "upper"},
			blocked: []BlockedFilter{{Index: 2, Blocker: 0, Columns: []string{"doubled"}}}},
		{name: "the blocker is the stage that stopped the filter, by its written position",
			in: []string{"add_col", "keep", "upper", "keep_doubled"}, want: []string{"keep", "add_col", "keep_doubled", "upper"},
			blocked: []BlockedFilter{{Index: 3, Blocker: 0, Columns: []string{"doubled"}}}},
		{name: "a second filter stops behind the first",
			in: []string{"keep", "upper", "keep"}, want: []string{"keep", "keep", "upper"},
			blocked: []BlockedFilter{{Index: 2, Blocker: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byName := map[task.Spec]string{}
			var specs []task.Spec
			for _, name := range tc.in {
				parsed, failed := reg.Parse(f)
				sp, err := parsed[name], failed[name]
				if err != nil {
					t.Fatal(err)
				}
				byName[sp] = name
				specs = append(specs, sp)
			}
			h := HoistFilters(specs)
			var got []string
			for _, sp := range h.Specs {
				got = append(got, byName[sp])
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("hoisted order = %v, want %v", got, tc.want)
			}
			if h.Moved != !reflect.DeepEqual(tc.in, tc.want) {
				t.Errorf("Moved = %v for %v -> %v", h.Moved, tc.in, tc.want)
			}
			if !reflect.DeepEqual(h.Blocked, tc.blocked) {
				t.Errorf("blocked = %+v, want %+v", h.Blocked, tc.blocked)
			}
			// A filter the hoist brought to the head is never also
			// reported blocked.
			for _, bf := range h.Blocked {
				if h.Specs[0] == specs[bf.Index] {
					t.Errorf("filter %d leads the hoisted chain and is reported blocked: %+v", bf.Index, bf)
				}
			}
			if h.Moved && &h.Specs[0] == &specs[0] {
				t.Error("HoistFilters reordered the caller's slice in place")
			}
		})
	}
}

func TestGraphString(t *testing.T) {
	g := build(t, chainFlow, nil)
	s := g.String()
	for _, want := range []string{"D.raw", "(source)", "filter_by v > 0", "groupby a"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan view missing %q:\n%s", want, s)
		}
	}
}

func TestSignatures(t *testing.T) {
	g := build(t, chainFlow, nil)
	src := func(name string) string { return "payload-v1" }
	sigs := g.Signatures(src)
	if len(sigs) != 3 {
		t.Fatalf("signatures = %d", len(sigs))
	}
	// Stable across calls.
	again := g.Signatures(src)
	for k, v := range sigs {
		if again[k] != v {
			t.Errorf("signature for %s unstable", k)
		}
	}
	// Source payload changes propagate to every downstream node.
	changed := g.Signatures(func(string) string { return "payload-v2" })
	for _, node := range []string{"raw", "mid", "out"} {
		if changed[node] == sigs[node] {
			t.Errorf("node %s signature did not change with its source", node)
		}
	}
	// Editing one task changes that node and its descendants only.
	g2 := build(t, strings.Replace(chainFlow, "groupby: [a]", "groupby: [b]", 1), nil)
	sigs2 := g2.Signatures(src)
	if sigs2["mid"] != sigs["mid"] {
		t.Error("upstream node signature changed by a downstream edit")
	}
	if sigs2["out"] == sigs["out"] {
		t.Error("edited node signature unchanged")
	}
	// Editing a parallel sub-task changes the composite's consumers.
	par := `
D:
  raw: [postedTime, body]

D.raw:
  source: r.csv

F:
  +D.out: D.raw | T.pipe

T:
  pipe:
    parallel: [T.up]
  up:
    type: map
    operator: upper
    transform: body
`
	gp := build(t, par, nil)
	base := gp.Signatures(src)["out"]
	gp2 := build(t, strings.Replace(par, "operator: upper", "operator: lower", 1), nil)
	if gp2.Signatures(src)["out"] == base {
		t.Error("parallel sub-task edit not reflected in signature")
	}
}

// rejected are flow files Build rejects, with the error text it has always
// given: the failing cases of the tests above, one per problem kind, and
// files with two independent problems (Build reports the one it meets
// first: task references flow by flow, then the cycle, then schemas in
// topological order).
var rejected = []struct {
	name, src string
	shared    bool
	kind      ProblemKind
	want      string
}{
	{name: "schema drift", kind: ProblemSchemaDrift,
		src:  strings.Replace(chainFlow, "D:\n  raw: [a, b, v]", "D:\n  raw: [a, b, v]\n  out: [a, wrong]", 1),
		want: "dag: D.out declared schema [a, wrong] but its flow produces [a, count]"},
	{name: "cycle", kind: ProblemCycle,
		src:  "D:\n  a: [x]\nF:\n  D.b: D.c | T.f\n  D.c: D.b | T.f\nT:\n  f:\n    type: filter_by\n    filter_expression: x > 0\n",
		want: "dag: flows form a cycle through D.b, D.c"},
	{name: "unresolvable", kind: ProblemUnresolvable,
		src:  "F:\n  +D.out: D.published_thing | T.g\nT:\n  g:\n    type: groupby\n    groupby: [k]\n",
		want: "dag: data object D.published_thing has no schema or producing flow"},
	{name: "unresolvable, catalog asked", kind: ProblemUnresolvable, shared: true,
		src:  "F:\n  +D.out: D.published_thing | T.g\nT:\n  g:\n    type: groupby\n    groupby: [k]\n",
		want: "dag: data object D.published_thing has no schema, source, or shared publication"},
	{name: "two producers", kind: ProblemTwoProducers,
		src:  "D:\n  raw: [a]\nF:\n  D.out: D.raw | T.f\n  D.out: D.raw | T.f\nT:\n  f:\n    type: filter_by\n    filter_expression: a > 0\n",
		want: "dag: data object D.out produced by two flows (lines 4 and 5)"},
	{name: "undefined task", kind: ProblemUndefinedTask,
		src:  "D:\n  raw: [a]\nF:\n  +D.out: D.raw | T.ghost\n",
		want: "dag: flow at line 4 references undefined task T.ghost"},
	{name: "unknown type", kind: ProblemUnknownType,
		src:  "D:\n  raw: [a]\nF:\n  +D.out: D.raw | T.f\nT:\n  f:\n    type: filter_bye\n",
		want: `task "f": unknown type "filter_bye" (registered: distinct, filter_by, groupby, join, limit, map, project, sort, topn, union)`},
	{name: "bad config", kind: ProblemBadConfig,
		src:  "D:\n  raw: [a]\nF:\n  +D.out: D.raw | T.top\nT:\n  top:\n    type: topn\n    limit: 3\n",
		want: `task "top": topn: empty orderby_column`},
	{name: "missing column", kind: ProblemMissingColumn,
		src:  "D:\n  raw: [a, b]\nF:\n  +D.out: D.raw | T.g\nT:\n  g:\n    type: groupby\n    groupby: [c]\n",
		want: `dag: flow for D.out (line 4): stage 1 (groupby c): schema: column "c" not found (have a, b)`},
	{name: "duplicate column", kind: ProblemDuplicateColumn,
		src:  "D:\n  raw: [a, b]\nF:\n  +D.out: D.raw | T.g\nT:\n  g:\n    type: groupby\n    groupby: [a, a]\n",
		want: `dag: flow for D.out (line 4): stage 1 (groupby a,a): schema: duplicate column "a"`},
	{name: "stage rejects its inputs", kind: ProblemBind,
		src:  "D:\n  l: [a]\n  r: [a]\nF:\n  +D.out: (D.l, D.r) | T.f\nT:\n  f:\n    type: filter_by\n    filter_expression: a > 0\n",
		want: "dag: flow for D.out (line 5): stage 1 (filter_by a > 0): filter_by: expected 1 input, got 2"},
	{name: "fan-in without task", kind: ProblemFanIn,
		src:  "D:\n  l: [a]\n  r: [a]\nF:\n  +D.out: (D.l, D.r)\n",
		want: "dag: flow for D.out (line 5): fan-in of 2 inputs needs at least one task"},
	{name: "bad task in the second flow before the cycle in the first", kind: ProblemBadConfig,
		src:  "D:\n  raw: [a]\nF:\n  D.b: D.c | T.f\n  D.c: D.b | T.f\n  +D.out: D.raw | T.top\nT:\n  f:\n    type: filter_by\n    filter_expression: a > 0\n  top:\n    type: topn\n    limit: 3\n",
		want: `task "top": topn: empty orderby_column`},
	{name: "two chains that do not bind: topological order decides", kind: ProblemMissingColumn,
		src:  "D:\n  raw: [a, b]\nF:\n  +D.late: D.mid | T.gx\n  D.mid: D.raw | T.f\n  +D.early: D.raw | T.gy\nT:\n  f:\n    type: filter_by\n    filter_expression: a > 0\n  gx:\n    type: groupby\n    groupby: [x]\n  gy:\n    type: groupby\n    groupby: [y]\n",
		want: `dag: flow for D.early (line 6): stage 1 (groupby y): schema: column "y" not found (have a, b)`},
	{name: "unresolvable source declared before a drifting sink", kind: ProblemUnresolvable,
		src:  "D.ghost:\n  source: ghost.csv\nD:\n  raw: [a]\n  out: [z]\nF:\n  +D.out: D.raw | T.f\n  +D.other: D.ghost | T.f\nT:\n  f:\n    type: filter_by\n    filter_expression: a > 0\n",
		want: "dag: data object D.ghost has no schema or producing flow"},
}

// TestBuildIsFirstProblem pins Build as "Resolve, then the first problem":
// same error, same text as ever, and a typed kind on the problem.
func TestBuildIsFirstProblem(t *testing.T) {
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			f, err := flowfile.Parse("t", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var shared SharedResolver
			if tc.shared {
				shared = func(string) (*schema.Schema, bool) { return nil, false }
			}
			_, err = Build(f, task.NewRegistry(), shared)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Build error = %v\nwant %s", err, tc.want)
			}
			g, problems := Resolve(f, task.NewRegistry(), shared)
			if g == nil || len(problems) == 0 || error(problems[0]) != err && problems[0].Error() != err.Error() {
				t.Fatalf("Resolve problems = %v, Build error = %v", problems, err)
			}
			if problems[0].Kind != tc.kind {
				t.Errorf("kind = %s, want %s", problems[0].Kind, tc.kind)
			}
		})
	}
}

// TestResolveKeepsGoing: past a failure the resolver still lists every
// independent problem and still resolves every healthy chain.
func TestResolveKeepsGoing(t *testing.T) {
	src := `
D.ghost:
  source: ghost.csv

D:
  raw: [a, b]
  out: [z]

F:
  D.x: D.y | T.f
  D.y: D.x | T.f
  +D.bad: D.raw | T.gx
  +D.out: D.raw | T.f
  +D.good: D.raw | T.f | T.ga
  D.behind: D.bad | T.f
  +D.lost: D.ghost | T.f

T:
  f:
    type: filter_by
    filter_expression: a > 0
  gx:
    type: groupby
    groupby: [x]
  ga:
    type: groupby
    groupby: [a]
  unused:
    type: nope
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	g, problems := Resolve(f, task.NewRegistry(), nil)
	var kinds []ProblemKind
	for _, p := range problems {
		kinds = append(kinds, p.Kind)
	}
	want := []ProblemKind{ProblemCycle, ProblemUnresolvable, ProblemSchemaDrift, ProblemMissingColumn}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("problem kinds = %v, want %v\n%v", kinds, want, problems)
	}
	if p := problems[3]; p.Entity != "T.gx" || p.Column != "x" || !reflect.DeepEqual(p.InScope, []string{"a", "b"}) {
		t.Errorf("missing-column problem = %+v", p)
	}
	if got := g.Nodes["good"].Schema.String(); got != "[a, count]" {
		t.Errorf("healthy chain schema = %s", got)
	}
	if st := g.Nodes["good"].Stages; len(st) != 2 || st[0].Name != "f" || st[0].Out.String() != "[a, b]" || st[1].Def != f.Tasks["ga"] {
		t.Errorf("healthy chain stages = %+v", st)
	}
	for _, name := range []string{"x", "y", "bad", "behind", "lost"} {
		if g.Nodes[name].Schema != nil {
			t.Errorf("D.%s resolved to %s", name, g.Nodes[name].Schema)
		}
	}
	if g.Nodes["behind"].Problem != nil || g.Nodes["lost"].Problem != nil {
		t.Error("a chain behind a failed one carries its own problem")
	}
	if p := g.BadTasks["unused"]; p == nil || p.Kind != ProblemUnknownType {
		t.Errorf("unreferenced bad task = %+v", p)
	}
	if len(g.Order) != len(g.Nodes) {
		t.Errorf("order %v misses nodes", g.Order)
	}
}
