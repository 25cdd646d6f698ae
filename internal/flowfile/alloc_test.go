package flowfile

import (
	"fmt"
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
