package enginetest

import (
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
)

// filterThenWords is a vectorizable filter ahead of a map with no
// columnar kernel: the shape where a stage's path once depended on its
// neighbour, which the plan never modelled.
const filterThenWords = diffHeader + `
F:
  D.out: D.src | T.keep | T.words

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  words:
    type: map
    operator: extract_words
    transform: product
    output: word
`

// lopsidedJoin joins a 200-row probe side with a 100-row build side:
// inputs of unequal size, both small, still run on the join kernel.
const lopsidedJoin = diffHeader + `
F:
  D.l: D.src | T.first200
  D.r: D.src | T.first100
  D.out: (D.l, D.r) | T.j | T.order

T:
  first200:
    type: limit
    limit: 200
  first100:
    type: limit
    limit: 100
  j:
    type: join
    left: l by (region, product, amount)
    right: r by (region, product, amount)
    join_condition: inner
  order:
    type: sort
    orderby_column: [l_ratio DESC]
`

// joinMapFilter puts a map between a join and a filter that reads only
// probe-side columns: the filter fuses into the join only once the plan
// hoists it past the map.
const joinMapFilter = diffHeader + `
F:
  D.l: D.src | T.first200
  D.r: D.src | T.first100
  D.out: (D.l, D.r) | T.j | T.m | T.f

T:
  first200:
    type: limit
    limit: 200
  first100:
    type: limit
    limit: 100
  j:
    type: join
    left: l by (region, product, amount)
    right: r by (region, product, amount)
    join_condition: inner
  m:
    type: map
    operator: expr
    expression: r_ratio * 2
    output: doubled
  f:
    type: filter_by
    filter_expression: l_amount > 10
`

// probeInline is a map-only node feeding a join as its probe side: it
// runs inside the join, whose probe-side filter runs inside the same run.
const probeInline = diffHeader + `
F:
  D.a: D.src | T.m
  D.dim: D.src | T.first30
  D.out: (D.a, D.dim) | T.j | T.keep

T:
  m:
    type: map
    operator: expr
    expression: amount * 2
    output: doubled
  first30:
    type: limit
    limit: 30
  j:
    type: join
    left: a by product
    right: dim by product
    join_condition: inner
  keep:
    type: filter_by
    filter_expression: a_doubled > 10
`

// filterTopN is a filter whose kept rows run into a sort and a limit, a
// top-n heap, and into a global topn: neither filter's output is built.
const filterTopN = diffHeader + `
F:
  D.out: D.src | T.keep | T.order | T.first
  +D.top: D.src | T.keep | T.top

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  order:
    type: sort
    orderby_column: [ratio DESC]
  first:
    type: limit
    limit: 25
  top:
    type: topn
    orderby_column: [amount, region]
    limit: 8
`

// inlineFan is an inline node, a filter then a map, feeding two
// group-bys: it runs as a fan, and its consumers' group-bys with it.
const inlineFan = diffHeader + `
F:
  D.mid: D.src | T.keep | T.m
  D.out: D.mid | T.agg | T.order
  +D.other: D.mid | T.by_product

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  m:
    type: map
    operator: expr
    expression: amount * 2
    output: doubled
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: max
        apply_on: doubled
        out_field: top
  order:
    type: sort
    orderby_column: [top DESC]
  by_product:
    type: groupby
    groupby: [product]
`

// TestPlanPredictsExecutedPath plans every fixed flow as a dashboard
// before any run, with no history recorder — what `explain` shows first
// — runs it over a column-backed (CSV-decoded) source, and requires every
// stage, joins included, to have run on the path the plan predicts. The
// engine's one data-dependent decline, a column with no typed vector
// such as the mixed-kind score nulls give kernel_chain, depends on cell
// values the plan cannot see: the source has no nulls. A fused stage is
// predicted on the path of the stage it runs inside, and at least one is
// checked. The run is traced, and every stage's fused and inline marks
// must equal the fused and inline flags on its span: an inline node's
// span holds its own stages' spans, then its consumers' first stages'.
func TestPlanPredictsExecutedPath(t *testing.T) {
	fused, inline := 0, 0
	data, err := connector.EncodeCSV(salesTable(2000, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	flows := append(fixedFlows[:len(fixedFlows):len(fixedFlows)], struct{ name, flow string }{"filter_then_words", filterThenWords},
		struct{ name, flow string }{"lopsided_join", lopsidedJoin}, struct{ name, flow string }{"join_map_filter", joinMapFilter},
		struct{ name, flow string }{"inline_fan", inlineFan}, struct{ name, flow string }{"probe_inline", probeInline},
		struct{ name, flow string }{"filter_topn", filterTopN})
	for _, tc := range flows {
		t.Run(tc.name, func(t *testing.T) {
			// The flow as a dashboard: its source decoded from CSV, its
			// output an endpoint so the planner does not skip it.
			src := diffHeader + "D.src:\n  source: mem:src.csv\n  format: csv\n" +
				strings.Replace(strings.TrimPrefix(tc.flow, diffHeader), "\n  D.out: ", "\n  +D.out: ", 1)
			f, err := flowfile.Parse(tc.name, src)
			if err != nil {
				t.Fatal(err)
			}
			p := dashboard.NewPlatform()
			p.Parallelism = 1
			p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{"src.csv": data}})
			d, err := p.Compile(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan := d.Explain()
			tr := obs.NewTrace(tc.name)
			d.SetTracer(tr)
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
			// A node span's children are its stage spans, in stage order.
			spans := map[string][]*obs.Span{}
			for _, s := range tr.Spans() {
				spans[s.Name] = s.Children
			}
			for _, name := range plan.Order {
				if np := plan.Node(name); np.Inline {
					own := spans["node D."+name]
					for i, c := range d.Graph.Nodes[name].Consumers {
						spans["node D."+c] = append([]*obs.Span{own[len(np.Stages)+i]}, spans["node D."+c]...)
					}
					spans["node D."+name] = own[:len(np.Stages)]
				}
			}
			ran := map[string]string{}
			for _, st := range d.Result().Stats.Timings {
				ran[dag.HintKey(st.Output, st.Stage)] = st.Path
			}
			checked := 0
			for _, name := range plan.Order {
				np := plan.Node(name)
				if np.Source {
					continue
				}
				stages := spans["node D."+name]
				if len(stages) != len(np.Stages) {
					t.Errorf("D.%s: plan has %d stages, the trace %d", name, len(np.Stages), len(stages))
					continue
				}
				for i, st := range np.Stages {
					checked++
					if span := stages[i]; span.Name != "stage "+st.Stage || span.HasFlag("fused") != st.Fused {
						t.Errorf("D.%s: plan marks %q fused=%v, the trace ran %q with flags %v", name, st.Stage, st.Fused, span.Name, span.Flags)
					} else if span.HasFlag("inline") != st.Inline {
						t.Errorf("D.%s: plan marks %q inline=%v, the trace ran it with flags %v", name, st.Stage, st.Inline, span.Flags)
					}
					if st.Fused {
						fused++
					}
					if st.Inline {
						inline++
					}
					if got, ok := ran[dag.HintKey(name, st.Stage)]; !ok {
						t.Errorf("D.%s: plan predicts %s for %q, but no stage %q ran", name, st.Path, st.Stage, st.Stage)
					} else if got != st.Path {
						t.Errorf("D.%s: plan predicts %s for %q, the executor took %s", name, st.Path, st.Stage, got)
					}
				}
			}
			if checked == 0 {
				t.Errorf("the plan predicts no stage:\n%s", plan.Format())
			}
		})
	}
	if fused == 0 || inline == 0 {
		t.Errorf("%d fused and %d inline stages were predicted", fused, inline)
	}
}
