package enginetest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// fanFlow is an inline node D.mid, src run through chain (task names
// among keep_none, keep_all, keep_some, rev and twice), feeding sinks
// group-by consumers. Between them the consumers apply every registered
// aggregate to amount, ratio, product and, when the chain computes it,
// rev; every second one sorts its groups after, on its own goroutine.
func fanFlow(chain []string, sinks int) string {
	var f, tasks strings.Builder
	f.WriteString("F:\n  D.mid: D.src | T." + strings.Join(chain, " | T.") + "\n")
	cols := []string{"amount", "ratio", "product"}
	if strings.Contains(strings.Join(chain, " "), "rev") {
		cols = append(cols, "rev")
	}
	keys := []string{"region", "product", "region, flag", "flag"}
	ops := task.Aggregates()
	for s := range sinks {
		fmt.Fprintf(&f, "  +D.out%d: D.mid | T.agg%d", s, s)
		if s%2 == 1 {
			fmt.Fprintf(&f, " | T.order%d", s)
			fmt.Fprintf(&tasks, "  order%d:\n    type: sort\n    orderby_column: [n DESC]\n", s)
		}
		f.WriteString("\n")
		fmt.Fprintf(&tasks, "  agg%d:\n    type: groupby\n    groupby: [%s]\n    aggregates:\n      - operator: count\n        out_field: n\n", s, keys[s])
		for i := s; i < len(ops)*len(cols); i += sinks {
			fmt.Fprintf(&tasks, "      - operator: %s\n        apply_on: %s\n        out_field: a%d\n", ops[i%len(ops)], cols[i/len(ops)], i)
		}
	}
	return diffHeader + f.String() + `
T:
  keep_none:
    type: filter_by
    filter_expression: amount > 1000
  keep_all:
    type: filter_by
    filter_expression: amount > -1000
  keep_some:
    type: filter_by
    filter_expression: amount > 20 or ratio < -1
  rev:
    type: map
    operator: expr
    expression: amount * 3 + 1
    output: rev
  twice:
    type: map
    operator: expr
    expression: ratio + ratio
    output: rev
` + tasks.String()
}

// fanRuns runs flow under the optimizer's plan, which marks D.mid
// inline, and holds every data object, D.mid included, to the reference
// and to the unoptimized plan's run: cell for cell and kind for kind. It returns the planned run.
func fanRuns(t *testing.T, flow string, sources map[string]*table.Table) *batch.Result {
	t.Helper()
	g := buildGraph(t, flow)
	plan := dag.Optimize(g, dag.PlanOptions{})
	if !plan.Node("mid").Inline {
		t.Fatalf("D.mid is not inline:\n%s", plan.Format())
	}
	got := runPlanned(t, g, plan, sources, "")
	for which, ref := range map[string]refResult{"the reference": reference(t, g, sources), "the unoptimized run": tables(runPath(t, g, sources, "", 1))} {
		for _, name := range ref.names() {
			want := ref[name]
			have, ok := got.Table(name)
			if !ok || !want.Equal(have) {
				t.Fatalf("D.%s differs from %s:\nwant:\n%s\ngot:\n%v", name, which, want.Format(10), have)
			}
			assertKindsEqual(t, name, want, have)
		}
	}
	return got
}

// TestFanOutDifferential: an inline node whose chain is a filter, a map,
// or a filter then a map — keeping none of the rows, all of them or some,
// over an input of 2,500 rows, not a multiple of the 1,024-row morsel —
// feeds one to four group-by consumers, every registered aggregate among
// them, min and max and the accumulators over the computed column
// included. It runs as a fan, never built, and every output equals the
// row path's and the unoptimized plan's; so it does over no rows, one,
// and exactly one morsel.
func TestFanOutDifferential(t *testing.T) {
	_ = task.RegisterAggregate("spread", func() task.Accumulator { return &spreadAcc{} })
	sources := map[string]*table.Table{"src": salesTable(2500, 11, 10)}
	for _, chain := range [][]string{{"keep_some"}, {"rev"}, {"keep_some", "rev"}, {"keep_none", "rev"},
		{"keep_all", "rev"}, {"keep_all"}, {"keep_none"}, {"rev", "keep_some"}} {
		for sinks := 1; sinks <= 4; sinks++ {
			t.Run(fmt.Sprintf("%s/%d", strings.Join(chain, "+"), sinks), func(t *testing.T) {
				for name, src := range map[string]map[string]*table.Table{"row-backed": sources, "column-backed": columnBacked(sources)} {
					res := fanRuns(t, fanFlow(chain, sinks), src)
					_, built := res.Tables["mid"]
					if _, ran := res.Stats.RowsProduced["mid"]; built || !ran {
						t.Errorf("%s inputs: D.mid was built, or did not run", name)
					}
				}
			})
		}
	}
	// No rows, one, and exactly one morsel.
	for _, n := range []int{0, 1, 1024} {
		fanRuns(t, fanFlow([]string{"keep_some", "rev"}, 2), columnBacked(map[string]*table.Table{"src": salesTable(n, 2, 10)}))
	}
}

// TestFanDeclines: an inline node whose map's morsel results change kind
// after the first morsel (ratio + ratio is a float while ratio has no
// nulls and the int 0 where both sides are null) is materialized as if it
// were not inline, and gives the materialized run's cells. One whose
// input holds a boxed or a time column runs inline: the fan reads boxed
// columns through value.V.
func TestFanDeclines(t *testing.T) {
	boxed, timed, nulls := salesTable(2500, 3, 0), salesTable(2500, 3, 0), salesTable(2500, 3, 0)
	set := func(tb *table.Table, col string, from int, v func(i int) value.V) *table.Table {
		out := table.New(schema.MustFromNames("region", "product", "amount", "ratio", "flag"))
		c := tb.Schema().Index(col)
		for i, r := range tb.Rows() {
			r = append(table.Row(nil), r...)
			if i >= from {
				r[c] = v(i)
			}
			out.Append(r)
		}
		return out
	}
	boxed = set(boxed, "product", 2000, func(i int) value.V { return value.NewInt(int64(i)) })
	timed = set(timed, "flag", 0, func(i int) value.V { return value.NewTime(time.Unix(int64(i), 0).UTC()) })
	nulls = set(nulls, "ratio", 1024, func(int) value.V { return value.VNull })
	for name, tc := range map[string]struct {
		chain []string
		src   *table.Table
		built bool
	}{"boxed": {[]string{"keep_some", "rev"}, boxed, false}, "time": {[]string{"keep_some"}, timed, false},
		"kind": {[]string{"twice"}, nulls, true}} {
		t.Run(name, func(t *testing.T) {
			res := fanRuns(t, fanFlow(tc.chain, 2), map[string]*table.Table{"src": tc.src})
			if _, built := res.Tables["mid"]; built != tc.built {
				t.Errorf("D.mid built=%v, want %v", built, tc.built)
			}
		})
	}
}
