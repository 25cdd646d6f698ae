package flowfile

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// authoringFlow is a dashboard somebody is working on: seven flows, nine
// tasks, six widgets.
const authoringFlow = `D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  D.big: D.sales | T.keep
  +D.by_region: D.big | T.sum_region
  D.by_product: D.big | T.sum_product
  D.by_pair: D.big | T.sum_pair
  +D.busiest: D.by_pair | T.top_pairs
  +D.laggards: D.by_product | T.bottom
  +D.leaders: D.by_product | T.top

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  sum_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  sum_pair:
    type: groupby
    groupby: [region, product]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
      - operator: count
        out_field: orders
  top_pairs:
    type: topn
    orderby_column: [total DESC]
    limit: 12
  bottom:
    type: topn
    orderby_column: [total ASC]
    limit: 5
  pick:
    type: filter_by
    filter_by: [region]
    filter_source: W.regions
    filter_val: [x]
  top:
    type: topn
    orderby_column: [total DESC]
    limit: 10

W:
  regions:
    type: BarChart
    source: D.by_region
    x: region
    y: total
  share:
    type: Pie
    source: D.by_region
    text: region
    size: total
  leaders:
    type: Grid
    source: D.leaders
  laggards:
    type: Grid
    source: D.laggards
  busiest:
    type: Grid
    source: D.busiest
  in_region:
    type: Grid
    source: D.by_pair | T.pick

L:
  description: Authoring loop
  rows:
    - [span6: W.regions, span6: W.share]
    - [span4: W.leaders, span4: W.laggards, span4: W.busiest]
    - [span12: W.in_region]
`

// chainFlow is a flow of n tasks, each producing the next data object.
func chainFlow(n int) string {
	var b strings.Builder
	b.WriteString("D:\n  d0: [region, product, amount]\n\nD.d0:\n  source: data:sales.csv\n  format: csv\n\nF:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  D.d%d: D.d%d | T.t%d\n", i+1, i, i)
	}
	b.WriteString("\nT:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  t%d:\n    type: groupby\n    groupby: [region, product]\n    aggregates:\n", i)
		fmt.Fprintf(&b, "      - operator: sum\n        apply_on: amount\n        out_field: amount\n")
	}
	return b.String()
}

// TestFlowHashAllocs pins the flow hash (the canonical text and its
// sha256) at a cost per flow, not per token: a 9-task and a 40-task
// flow each take at most 20 objects.
func TestFlowHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for name, src := range map[string]string{"9 tasks": authoringFlow, "40 tasks": chainFlow(40)} {
		f, err := Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() { _ = f.Hash() })
		if n > 20 {
			t.Errorf("%s: the flow hash of %d bytes takes %.0f objects, want at most 20", name, len(f.String()), n)
		}
	}
}

// TestParseAllocs pins a parse at a cost per file and per section, not
// per token: the tree and the typed sections are carved from slabs, so
// the nine-task authoring flow and a 40-task chain each take at most 60
// objects (one per node, entry and reference was 395 and 1,364). Copying
// each section's lines out before building its tree costs 20–30 more.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, c := range []struct {
		name, src string
		most      float64
	}{{"authoring flow", authoringFlow, 60}, {"40 tasks", chainFlow(40), 60}} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := Parse(c.name, c.src); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.most {
			t.Errorf("%s: a parse of %d bytes takes %.0f objects, want at most %.0f", c.name, len(c.src), n, c.most)
		}
	}
}

// appended keeps what sentinel appends return, so none is optimized away.
var appended any

// sentinel appends v to s and drops the result: if s has spare capacity
// in an array a neighbour uses, the append overwrites that neighbour.
func sentinel[T any](s []T, v T) func() { return func() { appended = append(s, v) } }

// parsedSlices lists, for every slice a parsed File holds, an append of a
// sentinel to it.
func parsedSlices(f *File) []func() {
	out := []func(){sentinel(f.DataOrder, "x"), sentinel(f.TaskOrder, "x"), sentinel(f.WidgetOrder, "x"),
		sentinel(f.Flows, &Flow{})}
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, sentinel(n.Entries, MapEntry{Key: "x", Value: &Node{Scalar: "x"}}), sentinel(n.Items, &Node{Scalar: "x"}))
		for _, e := range n.Entries {
			walk(e.Value)
		}
		for _, it := range n.Items {
			walk(it)
		}
	}
	pipe := func(p *Pipeline) {
		if p != nil {
			out = append(out, sentinel(p.Inputs, Ref{"D", "x"}), sentinel(p.Tasks, Ref{"T", "x"}))
		}
	}
	for _, d := range f.Data {
		out = append(out, sentinel(d.PropOrder, "x"))
	}
	for _, fl := range f.Flows {
		out = append(out, sentinel(fl.Outputs, Ref{"D", "x"}))
		pipe(fl.Pipeline)
	}
	for _, td := range f.Tasks {
		walk(td.Config)
	}
	for _, w := range f.Widgets {
		walk(w.Config)
		pipe(w.Source)
		out = append(out, sentinel(w.Static, "x"))
	}
	if f.Layout != nil {
		out = append(out, sentinel(f.Layout.Rows, LayoutRow{}))
		for _, r := range f.Layout.Rows {
			out = append(out, sentinel(r.Cells, LayoutCell{Widget: "x"}))
		}
	}
	return out
}

// TestParsedSlicesDoNotAlias: every slice carved from a shared slab has
// cap == len, so an append to any slice of a parsed File, and SetProp,
// AddData and AddTask after the parse, leave the rest of the File as a
// fresh parse has it.
func TestParsedSlicesDoNotAlias(t *testing.T) {
	for name, src := range map[string]string{"authoring": authoringFlow, "join": joinShapedFlow, "chain": chainFlow(9)} {
		fresh := func() *File {
			f, err := Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		f, want := fresh(), fresh()
		text := want.String()
		appends := parsedSlices(f)
		for i, app := range appends {
			if app(); f.String() != text || !reflect.DeepEqual(f, want) {
				t.Fatalf("%s: append %d of %d changed the parsed file", name, i, len(appends))
			}
		}
		// Each mutation is undone by restoring the slice headers it
		// grew: what stays is anything it wrote over a neighbour.
		for _, d := range f.Data {
			props, order := d.Props, d.PropOrder
			d.SetProp("sentinel", "x")
			delete(d.Props, "sentinel")
			if d.PropOrder = order; props == nil {
				d.Props = nil
			}
		}
		dataOrder, taskOrder := f.DataOrder, f.TaskOrder
		f.AddData(&DataDef{Name: "sentinel"})
		if err := f.AddTask(&TaskDef{Name: "sentinel"}); err != nil {
			t.Fatal(err)
		}
		delete(f.Data, "sentinel")
		delete(f.Tasks, "sentinel")
		f.DataOrder, f.TaskOrder = dataOrder, taskOrder
		if f.String() != text || !reflect.DeepEqual(f, want) {
			t.Fatalf("%s: SetProp, AddData or AddTask after the parse changed the rest of the file", name)
		}
	}
}
