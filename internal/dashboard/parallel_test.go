package dashboard

import (
	"reflect"
	"slices"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
)

// parallelCSV is the source of the parallel flows below.
const parallelCSV = "k,a\nx,1\nx,2\ny,5\n"

// parallelFlows put a row-local task behind a parallel (Figure 20), one
// level deep and two, with the answer each must give: a parallel is its
// sub-tasks applied in turn, so the optimizer must see every column they
// read.
var parallelFlows = []struct {
	name, flow string
	want       [][]string
}{
	{"filter", `
D:
  src: [k, a]

D.src:
  source: mem:src.csv
  format: csv

F:
  +D.out: D.src | T.p | T.g

T:
  p:
    parallel: [T.f]
  f:
    type: filter_by
    filter_expression: a > 1
  g:
    type: groupby
    groupby: [k]
`, [][]string{{"x", "1"}, {"y", "1"}}},
	{"nested expr map", `
D:
  src: [k, a]

D.src:
  source: mem:src.csv
  format: csv

F:
  +D.out: D.src | T.p | T.g

T:
  p:
    parallel: [T.q]
  q:
    parallel: [T.m]
  m:
    type: map
    operator: expr
    expression: a + 1
    output: b
  g:
    type: groupby
    groupby: [k]
    aggregates:
      - operator: sum
        apply_on: b
        out_field: total
`, [][]string{{"x", "5"}, {"y", "6"}}},
}

// TestParallelSubReadsSurviveOptimizer: with the optimizer on, the plan
// skips no column a parallel's sub-task reads, and the endpoint is the
// optimizer-off answer and the hand-written one.
func TestParallelSubReadsSurviveOptimizer(t *testing.T) {
	for _, tc := range parallelFlows {
		t.Run(tc.name, func(t *testing.T) {
			run := func(optimize bool) *Dashboard {
				p := NewPlatform()
				p.Optimize = optimize
				p.Connectors = connector.NewRegistry(connector.Options{
					Mem: map[string][]byte{"src.csv": []byte(parallelCSV)},
				})
				f, err := flowfile.Parse("par", tc.flow)
				if err != nil {
					t.Fatal(err)
				}
				d, err := p.Compile(f, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Run(); err != nil {
					t.Fatal(err)
				}
				return d
			}
			on, off := run(true), run(false)
			if pd := on.runPlan.Node("src").Pushdown; pd != nil && slices.Contains(pd.SkipColumns, "a") {
				t.Errorf("the plan skips decoding a, which a sub-task reads: %v", pd.SkipColumns)
			}
			got, base := endpointRows(t, on), endpointRows(t, off)
			if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(base, tc.want) {
				t.Errorf("optimized %v, unoptimized %v, want %v", got, base, tc.want)
			}
		})
	}
}

// parallelWidgetFlow has one widget that filters on the picker's
// selection through a parallel, and one that filters directly.
const parallelWidgetFlow = `
D:
  raw: [k, v]

D.raw:
  source: mem:raw.csv
  format: csv

T:
  par:
    parallel: [T.pick]
  pick:
    type: filter_by
    filter_by: [k]
    filter_source: W.picker
    filter_val: [text]

W:
  picker:
    type: List
    source: D.raw
    text: k
  through:
    type: Grid
    source: D.raw | T.par
  direct:
    type: Grid
    source: D.raw | T.pick
`

// TestInteractionSources: a widget reacts to the selections of the
// widgets its source's filters read, through a parallel too, and a
// selection refreshes it; a widget with no interaction filter reacts to
// none.
func TestInteractionSources(t *testing.T) {
	f, err := flowfile.Parse("t", parallelWidgetFlow)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"raw.csv": []byte("a,1\nb,2\n")},
	})
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Dependents("picker"); !slices.Equal(got, []string{"through", "direct"}) {
		t.Errorf("Dependents(picker) = %v, want [through direct]", got)
	}
	if got := d.plans["picker"].interactsWith; len(got) != 0 {
		t.Errorf("a widget with no interaction filter reads the selections of %v", got)
	}
	if err := d.Select("picker", "a"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"through", "direct"} {
		if inst, _ := d.Widget(name); inst.Data.Len() != 1 || inst.Data.Cell(0, "k").Str() != "a" {
			t.Errorf("W.%s after selecting a:\n%s", name, inst.Data.Format(0))
		}
	}
}
