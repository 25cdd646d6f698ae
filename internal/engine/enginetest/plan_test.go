package enginetest

import (
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs/history"
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
// 300 rows in, over the auto threshold, though the probe side the engine
// thresholds on is under it, so the join runs on rows.
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

// TestPlanPredictsExecutedPath runs every fixed flow once as a dashboard
// that records history, over a column-backed (CSV-decoded) source in
// auto mode, then re-plans it from that history — what `explain` shows
// next — and requires every stage the plan predicts as row or columnar
// to be a stage that ran on exactly that path, joins included. Left out
// are the engine's data-dependent declines — a column with no typed
// vector, such as the mixed-kind score nulls give kernel_chain, or a
// kernel falling back on values it has no typed path for — which depend
// on cell values, not on the evidence a plan has: the source has no
// nulls. A fused stage is predicted on the path of the stage it runs
// inside, and at least one is checked.
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
			p.History = history.NewRecorder(history.Options{})
			p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{"src.csv": data}})
			d, err := p.Compile(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
			ran := map[string]string{}
			for _, st := range d.Result().Stats.Timings {
				ran[dag.HintKey(st.Output, st.Stage)] = st.Path
			}
			plan := d.Explain()
			checked := 0
			for _, name := range plan.Order {
				np := plan.Node(name)
				if np.Source {
					continue
				}
				for _, st := range np.Stages {
					if st.Path != batch.PathRow && st.Path != batch.PathColumnar {
						continue
					}
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
				t.Errorf("no stage was predicted from history:\n%s", plan.Format())
			}
		})
	}
	if fused == 0 {
		t.Error("no fused stage was predicted from history")
	}
}
