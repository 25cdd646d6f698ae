package task

import (
	"strings"
	"testing"

	"shareinsights/internal/table"
)

func TestCaseOperators(t *testing.T) {
	in := mkTable(t, "name", []any{"  Pig  "})
	cases := []struct {
		op, want string
	}{
		{"upper", "  PIG  "},
		{"lower", "  pig  "},
		{"trim", "Pig"},
	}
	for _, c := range cases {
		spec := parseSpec(t, "x:\n  type: map\n  operator: "+c.op+"\n  transform: name\n  output: out\n")
		got, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if got.Cell(0, "out").Str() != c.want {
			t.Errorf("%s = %q, want %q", c.op, got.Cell(0, "out").Str(), c.want)
		}
	}
}

func TestConcatReplaceConstant(t *testing.T) {
	in := mkTable(t, "first,last", []any{"ada", "lovelace"})
	spec := parseSpec(t, `
c:
  type: map
  operator: concat
  transform: [first, last]
  separator: ' '
  output: full
`)
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "full").Str() != "ada lovelace" {
		t.Errorf("concat = %q", out.Cell(0, "full").Str())
	}

	spec = parseSpec(t, `
r:
  type: map
  operator: replace
  transform: first
  old: a
  new: o
`)
	out, err = spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "first").Str() != "odo" {
		t.Errorf("replace = %q", out.Cell(0, "first").Str())
	}

	spec = parseSpec(t, `
k:
  type: map
  operator: constant
  output: source
  value: '42'
`)
	out, err = spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "source").Int() != 42 {
		t.Errorf("constant = %v", out.Cell(0, "source"))
	}
}

func TestOperatorConfigErrors(t *testing.T) {
	bad := []string{
		"x:\n  type: map\n  operator: nope\n",
		"x:\n  type: map\n  operator: date\n  transform: a\n",                 // no output_format/output
		"x:\n  type: map\n  operator: extract\n  transform: a\n  output: b\n", // no dict
		"x:\n  type: map\n  operator: concat\n  output: b\n",
		"x:\n  type: map\n  operator: replace\n  transform: a\n",
		"x:\n  type: map\n  operator: constant\n  value: v\n",
		"x:\n  type: map\n  operator: expr\n  output: b\n",
		"x:\n  type: map\n  operator: expr\n  expression: ((\n  output: b\n",
		"x:\n  type: map\n",
	}
	for _, src := range bad {
		if _, err := parseSpec2(src); err == nil {
			t.Errorf("config should fail:\n%s", src)
		}
	}
}

func TestRemainingAggregates(t *testing.T) {
	spec := parseSpec(t, `
g:
  type: groupby
  groupby: [k]
  aggregates:
    - operator: min
      apply_on: v
      out_field: lo
    - operator: max
      apply_on: v
      out_field: hi
    - operator: first
      apply_on: tag
      out_field: first_tag
    - operator: last
      apply_on: tag
      out_field: last_tag
`)
	in := mkTable(t, "k,v,tag",
		[]any{"a", 3, "x"}, []any{"a", 1, "y"}, []any{"a", 2, "z"})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "lo").Int() != 1 || out.Cell(0, "hi").Int() != 3 {
		t.Errorf("min/max wrong:\n%s", out.Format(0))
	}
	if out.Cell(0, "first_tag").Str() != "x" || out.Cell(0, "last_tag").Str() != "z" {
		t.Errorf("first/last wrong:\n%s", out.Format(0))
	}
}

func TestAggregateNullHandling(t *testing.T) {
	spec := parseSpec(t, `
g:
  type: groupby
  groupby: [k]
  aggregates:
    - operator: avg
      apply_on: v
      out_field: mean
    - operator: min
      apply_on: v
      out_field: lo
    - operator: count_distinct
      apply_on: v
      out_field: nd
`)
	in := mkTable(t, "k,v", []any{"a", nil}, []any{"a", 4}, []any{"a", nil}, []any{"a", 4})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// avg and min skip nulls; count_distinct counts null as a value.
	if out.Cell(0, "mean").Float() != 4 || out.Cell(0, "lo").Int() != 4 {
		t.Errorf("null-skipping aggregates wrong:\n%s", out.Format(0))
	}
	if out.Cell(0, "nd").Int() != 2 {
		t.Errorf("count_distinct = %v (null + 4)", out.Cell(0, "nd"))
	}
	// All-null group yields null results for skipping aggregates.
	in2 := mkTable(t, "k,v", []any{"a", nil})
	out2, err := spec.Exec(&Env{}, []*table.Table{in2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Cell(0, "mean").IsNull() || !out2.Cell(0, "lo").IsNull() {
		t.Errorf("all-null group should be null:\n%s", out2.Format(0))
	}
}

func TestGroupByConfigErrors(t *testing.T) {
	bad := []string{
		"g:\n  type: groupby\n",
		"g:\n  type: groupby\n  groupby: [k]\n  aggregates:\n    - apply_on: v\n",
		"g:\n  type: groupby\n  groupby: [k]\n  aggregates:\n    - operator: nope\n      apply_on: v\n",
		"g:\n  type: groupby\n  groupby: [k]\n  aggregates:\n    - operator: sum\n",
	}
	for _, src := range bad {
		if _, err := parseSpec2(src); err == nil {
			t.Errorf("config should fail:\n%s", src)
		}
	}
}

func TestJoinConfigErrors(t *testing.T) {
	bad := []string{
		"j:\n  type: join\n  left: l\n  right: r by k\n",
		"j:\n  type: join\n  left: l by a\n  right: r by (x, y)\n",
		"j:\n  type: join\n  left: l by a\n  right: r by b\n  join_condition: sideways\n",
	}
	for _, src := range bad {
		if _, err := parseSpec2(src); err == nil {
			t.Errorf("config should fail:\n%s", src)
		}
	}
	// Project referencing a nonexistent qualified column fails at bind.
	spec := parseSpec(t, `
j:
  type: join
  left: l by k
  right: r by k
  project:
    l_ghost: out
`)
	l := mkTable(t, "k", []any{1})
	r := mkTable(t, "k", []any{1})
	if _, err := spec.Exec(&Env{}, []*table.Table{l, r}, []string{"l", "r"}); err == nil || !strings.Contains(err.Error(), "l_ghost") {
		t.Errorf("bad project error = %v", err)
	}
	// Mismatched input names.
	if _, err := spec.Exec(&Env{}, []*table.Table{l, r}, []string{"x", "y"}); err == nil {
		t.Error("mismatched input names should fail")
	}
}

func TestTopNConfigErrors(t *testing.T) {
	bad := []string{
		"t:\n  type: topn\n  groupby: [k]\n  limit: 5\n",
		"t:\n  type: topn\n  groupby: [k]\n  orderby_column: [v DESC]\n",
		"t:\n  type: topn\n  groupby: [k]\n  orderby_column: [v SIDEWAYS]\n  limit: 5\n",
		"t:\n  type: topn\n  groupby: [k]\n  orderby_column: [v DESC]\n  limit: 0\n",
	}
	for _, src := range bad {
		if _, err := parseSpec2(src); err == nil {
			t.Errorf("config should fail:\n%s", src)
		}
	}
}

func TestDescribe(t *testing.T) {
	specs := map[string]string{
		"f:\n  type: filter_by\n  filter_expression: v > 1\n":                        "filter_by v > 1",
		"g:\n  type: groupby\n  groupby: [a, b]\n":                                   "groupby a,b",
		"m:\n  type: map\n  operator: upper\n  transform: a\n":                       "map upper",
		"t:\n  type: topn\n  groupby: [a]\n  orderby_column: [v DESC]\n  limit: 3\n": "topn 3",
	}
	for src, want := range specs {
		sp, err := parseSpec2(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := Describe(sp); !strings.Contains(got, want) {
			t.Errorf("Describe = %q, want contains %q", got, want)
		}
	}
}

func TestFilterConfigErrors(t *testing.T) {
	bad := []string{
		"f:\n  type: filter_by\n",
		"f:\n  type: filter_by\n  filter_by: [a]\n", // no filter_source
		"f:\n  type: filter_by\n  filter_by: [a]\n  filter_source: T.x\n  filter_val: [t]\n",
		"f:\n  type: filter_by\n  filter_by: [a, b]\n  filter_source: W.w\n  filter_val: [t]\n",
		"f:\n  type: filter_by\n  filter_expression: (((\n",
	}
	for _, src := range bad {
		if _, err := parseSpec2(src); err == nil {
			t.Errorf("config should fail:\n%s", src)
		}
	}
}

func TestEnvResourceAndTraceNil(t *testing.T) {
	var env *Env
	if _, ok := env.Resource("x"); ok {
		t.Error("nil env should have no resources")
	}
	env2 := &Env{}
	if _, ok := env2.Resource("x"); ok {
		t.Error("empty env should have no resources")
	}
}
