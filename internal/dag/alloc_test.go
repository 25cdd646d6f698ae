package dag

import (
	"reflect"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// TestResolveAllocs pins a resolve at a cost per file, not per node,
// chain or stage: the graph is carved from slabs. What remains is mostly
// parsing the task definitions and binding each stage's schema.
func TestResolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	reg := task.NewRegistry()
	for _, c := range []struct {
		flow string
		max  float64
	}{{"join", 150}, {"author", 115}} {
		f, err := flowfile.Parse(c.flow, benchFlow(t, c.flow))
		if err != nil {
			t.Fatal(err)
		}
		if _, problems := Resolve(f, reg, nil); len(problems) > 0 {
			t.Fatalf("%s: %v", c.flow, problems)
		}
		if n := testing.AllocsPerRun(20, func() { Resolve(f, reg, nil) }); n > c.max {
			t.Errorf("%s flow: Resolve takes %.0f objects, want at most %.0f", c.flow, n, c.max)
		}
	}
}

// multiOutputFlow has a flow with two outputs (each binds its own stage
// records), a fan-in, and a widget source with a task.
const multiOutputFlow = `D:
  raw: [a, b, v]

F:
  (D.lo, D.hi): D.raw | T.keep | T.order
  +D.both: (D.lo, D.hi) | T.all
  +D.top: D.both | T.first

T:
  keep:
    type: filter_by
    filter_expression: v > 0
  order:
    type: sort
    orderby_column: [v DESC]
  all:
    type: union
  first:
    type: limit
    limit: 3

W:
  table:
    type: Grid
    source: D.both | T.first
`

// TestGraphSlicesDoNotAlias appends to every slice Resolve carves — the
// order, each chain's inputs, specs and stages, each node's consumers —
// and requires the graph unchanged: each part has cap == len, so an
// append reallocates instead of writing into its neighbour.
func TestGraphSlicesDoNotAlias(t *testing.T) {
	reg := task.NewRegistry()
	for _, src := range []string{benchFlow(t, "author"), benchFlow(t, "join"), multiOutputFlow} {
		f, err := flowfile.Parse("alias", src)
		if err != nil {
			t.Fatal(err)
		}
		g, problems := Resolve(f, reg, nil)
		if len(problems) > 0 {
			t.Fatalf("%v for:\n%s", problems, src)
		}
		fresh, _ := Resolve(f, reg, nil)
		if !reflect.DeepEqual(g, fresh) {
			t.Fatalf("two resolves differ for:\n%s", src)
		}
		chains := []*Chain{}
		for _, n := range g.Nodes {
			chains = append(chains, &n.Chain)
			_ = append(n.Consumers, "sentinel")
		}
		for _, c := range g.Widgets {
			chains = append(chains, c)
		}
		_ = append(g.Order, "sentinel")
		for _, c := range chains {
			_ = append(c.Inputs, "sentinel")
			_ = append(c.Specs, &task.LimitSpec{N: 1})
			_ = append(c.Stages, Stage{Name: "sentinel"})
		}
		if !reflect.DeepEqual(g, fresh) {
			t.Fatalf("an append changed the graph resolved from:\n%s", src)
		}
		if g.String() != fresh.String() {
			t.Fatalf("an append changed the graph:\n%s\nwant:\n%s", g, fresh)
		}
	}
}
