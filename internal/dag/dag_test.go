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
		sp, err := reg.Parse(f, f.Tasks[name])
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
				sp, err := reg.Parse(f, f.Tasks[name])
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
