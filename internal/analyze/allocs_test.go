package analyze

import (
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// authoringFlow is a dashboard somebody is working on: seven flows, nine
// tasks, six widgets (the benchmark's authoring workload lints it on
// every save).
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

// TestAnalyzeAllocs pins the front end's allocations on the authoring
// and the join flow. Analyze walks each flow once, carving its records
// from slabs, and runs liveness as one backward pass over bitsets; Lint
// reads what the walk and the liveness pass kept, with no second
// propagation and no second lowering of an expression.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	reg := task.NewRegistry()
	join, err := flowfile.Parse("join", benchFlow(t, "join"))
	if err != nil {
		t.Fatal(err)
	}
	g, problems := dag.Resolve(join, reg, nil)
	if len(problems) > 0 {
		t.Fatalf("resolve: %v", problems)
	}
	if n := testing.AllocsPerRun(20, func() { Analyze(g, nil) }); n > 120 {
		t.Errorf("Analyze of the join flow takes %.0f objects, want at most 120", n)
	}
	f, err := flowfile.Parse("author", authoringFlow)
	if err != nil {
		t.Fatal(err)
	}
	g, problems = dag.Resolve(f, reg, nil)
	if len(problems) > 0 {
		t.Fatalf("resolve: %v", problems)
	}
	opts := Options{Tasks: reg, Connectors: connector.NewRegistry(connector.Options{})}
	a := Analyze(g, nil)
	if report := a.Lint(problems, opts); report.HasErrors() {
		t.Fatalf("lint: %v", report.Findings)
	}
	if n := testing.AllocsPerRun(20, func() { Analyze(g, nil) }); n > 80 {
		t.Errorf("Analyze takes %.0f objects, want at most 80", n)
	}
	if n := testing.AllocsPerRun(20, func() { a.Lint(problems, opts) }); n > 140 {
		t.Errorf("Lint takes %.0f objects, want at most 140", n)
	}
}
