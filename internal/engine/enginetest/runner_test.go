package enginetest

import (
	"fmt"
	"testing"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// probeInlineFlow is a map-only node D.a that feeds a join as its probe
// side, so it runs inside the join, and a filter after the join over
// pred, when it is not "".
func probeInlineFlow(cond, pred string) string {
	flow := joinHeader + `F:
  D.a: D.l | T.m
  D.out: (D.a, D.r) | T.j` + map[bool]string{true: " | T.f", false: ""}[pred != ""] + `

T:
  m:
    type: map
    operator: expr
    expression: v * 2 + ki
    output: w
  j:
    type: join
    left: a by (ks)
    right: r by (ks)
    join_condition: ` + cond + "\n"
	if pred != "" {
		flow += "  f:\n    type: filter_by\n    filter_expression: " + pred + "\n"
	}
	return flow
}

// TestProbeInlineDifferential: a map-only node that feeds a join's probe
// side is inline — the map and the join run as one fan, and the node is
// never built — under an inner and a left outer join, with no filter
// after the join, one on the probe side and one on the build side (each
// fused into the run), over keys with 1:N partners that
// straddle morsel boundaries (3,000 probe rows, each joining about seven
// build rows), null keys and, in the second shape, no partners at all.
// Every output equals the row path's and the unoptimized plan's, cell for
// cell and kind for kind.
func TestProbeInlineDifferential(t *testing.T) {
	for _, shape := range []joinShape{shapeDuplicates, shapeNoMatches} {
		sources := joinInputs(shape, 17, 3000)
		for _, cond := range []string{"inner", "left outer"} {
			for _, pred := range []string{"", "a_w > 40", "r_v > 3"} {
				name := fmt.Sprintf("%s/%s/%q", joinShapes[shape], cond, pred)
				flow := probeInlineFlow(cond, pred)
				diffFlow(t, flow, sources)
				g := buildGraph(t, flow)
				plan := dag.Optimize(g, dag.PlanOptions{})
				plan.SkippedSinks = nil // the flow marks no endpoint
				st := plan.Node("out").Stages
				if !plan.Node("a").Inline || !plan.Node("a").Stages[0].Inline || !st[0].Inline {
					t.Fatalf("%s: D.a is not inline into the join:\n%s", name, plan.Format())
				}
				if pred != "" && !st[1].Fused {
					t.Errorf("%s: the filter is not fused", name)
				}
				res := runPlanned(t, g, plan, sources, "")
				if _, built := res.Tables["a"]; built {
					t.Errorf("%s: D.a was built", name)
				}
				if _, ran := res.Stats.RowsProduced["a"]; !ran {
					t.Errorf("%s: D.a did not run", name)
				}
			}
		}
	}
}

// TestProbeInlineDeclines: a probe input that holds a time or a boxed
// column converts to a batch with a boxed vector, so the inline node
// still runs inside the join, and gives the materialized run's cells.
func TestProbeInlineDeclines(t *testing.T) {
	sources := joinInputs(shapeDuplicates, 5, 1500)
	for name, col := range map[string]func(i int) value.V{
		"time":  func(i int) value.V { return value.NewTime(time.Unix(int64(i)*60, 0).UTC()) },
		"boxed": func(i int) value.V { return []value.V{value.NewInt(1), value.NewString("x")}[i%2] },
	} {
		t.Run(name, func(t *testing.T) {
			l := table.New(sources["l"].Schema())
			for i, r := range sources["l"].Rows() {
				row := r.Clone()
				row[5] = col(i) // km
				l.Append(row)
			}
			in := map[string]*table.Table{"l": l, "r": sources["r"]}
			flow := probeInlineFlow("inner", "a_w > 40")
			diffFlow(t, flow, in)
			g := buildGraph(t, flow)
			plan := dag.Optimize(g, dag.PlanOptions{})
			plan.SkippedSinks = nil
			for _, src := range []map[string]*table.Table{in, columnBacked(in)} {
				if _, built := runPlanned(t, g, plan, src, "").Tables["a"]; built {
					t.Error("D.a was built over an input with a boxed column")
				}
			}
		})
	}
}

// TestTopNAfterFilterDifferential: a filter, then a sort and a limit or a
// global topn, runs as one fan into a top-n heap — over keys with nulls
// and ties (ki, ks), where the heap keeps the stable sort's prefix, and
// with NaN (kf), where the run starts over as a materialize and a stable
// sort — for budgets of one row, a few, and more than all; and so does a
// left outer join's probe with a filter after it, by the build side's
// key, null where a build row has none and where no build row joins.
func TestTopNAfterFilterDifferential(t *testing.T) {
	sources := joinInputs(shapeDuplicates, 23, 2500)
	// Eight build rows: some probe keys join none, and two build rows'
	// ks are null.
	r := table.New(sources["r"].Schema())
	for i, row := range sources["r"].Rows()[:8] {
		row = row.Clone()
		if i%3 == 0 {
			row[0] = value.VNull
		}
		r.Append(row)
	}
	sources["r"] = r
	for _, keys := range []string{"[ki DESC, ks]", "[kb, ki]", "[kf DESC, v]", "[km]"} {
		for _, limit := range []int{1, 7, 300, 5000} {
			flow := joinHeader + fmt.Sprintf(`F:
  D.sorted: D.l | T.keep | T.order | T.first
  D.top: D.l | T.keep | T.top
  D.joined: (D.l, D.r) | T.j | T.keep_l | T.by_right

T:
  keep:
    type: filter_by
    filter_expression: v > 40 and ki != 2
  order:
    type: sort
    orderby_column: %[1]s
  first:
    type: limit
    limit: %[2]d
  top:
    type: topn
    orderby_column: %[1]s
    limit: %[2]d
  j:
    type: join
    left: l by (ki)
    right: r by (ki)
    join_condition: left outer
  keep_l:
    type: filter_by
    filter_expression: l_v > 40
  by_right:
    type: topn
    orderby_column: [r_ks, r_v DESC]
    limit: %[2]d
`, keys, limit)
			diffFlow(t, flow, sources)
			plan := dag.Optimize(buildGraph(t, flow), dag.PlanOptions{})
			if st := plan.Node("sorted").Stages; !st[1].Fused || !st[2].Fused || !plan.Node("top").Stages[1].Fused ||
				!plan.Node("joined").Stages[2].Fused {
				t.Fatalf("%s by %d: the sort or top-n did not run inside the filter's run:\n%s", keys, limit, plan.Format())
			}
		}
	}
}

// TestLimitStepDifferential: a limit is a step — after a filter into
// Materialize, and inside an inline node whose chain feeds two group-bys —
// for budgets that end inside the first morsel, across morsels, and past
// the input.
func TestLimitStepDifferential(t *testing.T) {
	sources := map[string]*table.Table{"src": salesTable(3000, 29, 10)}
	for _, limit := range []int{0, 100, 2100, 4000} {
		flow := diffHeader + fmt.Sprintf(`F:
  D.out: D.src | T.keep | T.first | T.m
  D.mid: D.src | T.keep | T.first
  D.by_region: D.mid | T.agg
  D.by_product: D.mid | T.per_product

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  first:
    type: limit
    limit: %d
  m:
    type: map
    operator: expr
    expression: amount * ratio
    output: score
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  per_product:
    type: groupby
    groupby: [product]
`, limit)
		diffFlow(t, flow, sources)
		plan := dag.Optimize(buildGraph(t, flow), dag.PlanOptions{})
		if !plan.Node("mid").Inline || !plan.Node("out").Stages[2].Fused {
			t.Fatalf("limit %d: the limit is no step:\n%s", limit, plan.Format())
		}
	}
}

// TestInlineInputNeverInline: a steps-only node whose consumer starts
// with a step is not inline, so the inline node D.b never reads an inline
// input: its input D.a is built.
func TestInlineInputNeverInline(t *testing.T) {
	flow := diffHeader + `F:
  D.a: D.src | T.keep
  D.b: D.a | T.m
  D.out: D.b | T.agg

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  m:
    type: map
    operator: expr
    expression: amount * 2
    output: twice
  agg:
    type: groupby
    groupby: [region]
`
	sources := map[string]*table.Table{"src": salesTable(1500, 31, 5)}
	diffFlow(t, flow, sources)
	g := buildGraph(t, flow)
	plan := dag.Optimize(g, dag.PlanOptions{})
	plan.SkippedSinks = nil
	if plan.Node("a").Inline || !plan.Node("b").Inline {
		t.Fatalf("want D.b inline and D.a not:\n%s", plan.Format())
	}
	if _, built := runPlanned(t, g, plan, sources, "").Tables["a"]; !built {
		t.Error("D.a, the inline node's input, was not built")
	}
}
