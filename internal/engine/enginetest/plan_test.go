package enginetest

import (
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
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

// TestPlanPredictsExecutedPath plans every fixed flow as a dashboard
// before any run, with no history recorder — what `explain` shows first
// — runs it over a column-backed (CSV-decoded) source, and requires every
// stage, joins included, to have run on the path the plan predicts. The
// engine's one data-dependent decline, a column with no typed vector
// such as the mixed-kind score nulls give kernel_chain, depends on cell
// values the plan cannot see: the source has no nulls. A fused stage is
// predicted on the path of the stage it runs inside, and at least one is
// checked.
func TestPlanPredictsExecutedPath(t *testing.T) {
	fused := 0
	data, err := connector.EncodeCSV(salesTable(2000, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	flows := append(fixedFlows[:len(fixedFlows):len(fixedFlows)], struct{ name, flow string }{"filter_then_words", filterThenWords},
		struct{ name, flow string }{"lopsided_join", lopsidedJoin})
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
			if err := d.Run(); err != nil {
				t.Fatal(err)
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
				for _, st := range np.Stages {
					checked++
					if st.Fused {
						fused++
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
	if fused == 0 {
		t.Error("no fused stage was predicted")
	}
}
