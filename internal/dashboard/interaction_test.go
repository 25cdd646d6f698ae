package dashboard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// TestInteractionTraceBounded: a dashboard's own trace holds its run
// plus the latest interaction, however many selections follow the run.
func TestInteractionTraceBounded(t *testing.T) {
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"events.csv": interactionEvents},
	})
	f, err := flowfile.Parse("inter", interactionFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("inter")
	d.SetTracer(tr)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	run := tr.Len()
	if err := d.Select("teams", "1"); err != nil {
		t.Fatal(err)
	}
	one := tr.Len() - run
	if one == 0 {
		t.Fatal("a selection recorded no spans")
	}
	teams := []string{"1", "2", "3", "4", "5"}
	for i := 0; i < 1000; i++ {
		if err := d.Select("teams", teams[i%5]); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Len(); got != run+one {
		t.Errorf("after 1,001 selects the trace has %d spans, want the run's %d plus one interaction's %d", got, run, one)
	}
	if roots := tr.Roots(); roots[0].Name != "run inter" {
		t.Errorf("first root = %q, want the run", roots[0].Name)
	}
}

// errSpec is a task whose execution fails.
type errSpec struct{}

func (errSpec) Type() string                                { return "fails" }
func (errSpec) Out(in []task.Input) (*schema.Schema, error) { return in[0].Schema, nil }
func (errSpec) Exec(*task.Env, []*table.Table, []string) (*table.Table, error) {
	return nil, errors.New("fails: bad input")
}

// TestWidgetInteractionErrorText: a widget interaction stage that panics
// or fails reports it as the widget's, in the words it always has.
func TestWidgetInteractionErrorText(t *testing.T) {
	for typ, want := range map[string]string{
		"boom":  "dashboard w: widget W.g: panic in stage widget W.g: boom: nil dereference in user task",
		"fails": "dashboard w: widget W.g interaction: fails: bad input",
	} {
		p := NewPlatform()
		p.Optimize = false // the whole widget pipeline is interaction
		p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{"sales.csv": []byte("east,10\n")}})
		spec := task.Spec(panicSpec{})
		if typ == "fails" {
			spec = errSpec{}
		}
		if err := p.Tasks.Register(typ, func(*flowfile.Node) (task.Spec, error) { return spec, nil }); err != nil {
			t.Fatal(err)
		}
		f, err := flowfile.Parse("w", "D:\n  sales: [region, amount]\n\nD.sales:\n  source: mem:sales.csv\n  format: csv\n\n"+
			"F:\n  +D.out: D.sales | T.keep\n\nT:\n  keep:\n    type: filter_by\n    filter_expression: amount > 0\n  x:\n    type: "+typ+
			"\n\nW:\n  g:\n    type: Grid\n    source: D.out | T.x\n\nL:\n  rows:\n    - [span12: W.g]\n")
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Compile(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", typ, err, want)
		}
	}
}

// adhocRows is the ad-hoc differential's endpoint data: a low-cardinality
// string key, a wider string column, ints, floats with NaN, bools, and
// nulls in all but the key.
func adhocRows(n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		name, amount, ratio := value.NewString(fmt.Sprintf("n%02d", i%40)), value.NewInt(int64(i%17-3)), value.NewFloat(float64(i%13)/4)
		if i%31 == 7 {
			name = value.VNull
		}
		if i%23 == 0 {
			amount = value.VNull
		}
		switch i % 29 {
		case 5:
			ratio = value.NewFloat(math.NaN())
		case 11:
			ratio = value.VNull
		}
		rows[i] = table.Row{value.NewString(fmt.Sprintf("r%d", i%5)), name, amount, ratio, value.NewBool(i%3 == 0)}
	}
	return rows
}

// TestAdhocQueryDifferential holds the /ds path query, which runs on the
// engine's stage runner, to the row group-by it used to call directly:
// the same cells of the same kinds, the same served bytes and the same
// errors, for every registered aggregate over every column kind, on
// row-backed, plain and dictionary-coded column-backed endpoints either
// side of the columnar threshold — and the group-by kernel runs exactly
// on the side above it.
func TestAdhocQueryDifferential(t *testing.T) {
	f, err := flowfile.Parse("adhoc", "D:\n  src: [region, name, amount, ratio, flag]\n\nD.src:\n  source: mem:src.csv\n  format: csv\n\n"+
		"F:\n  +D.ep: D.src | T.keep\n\nT:\n  keep:\n    type: filter_by\n    filter_expression: amount > 0\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewPlatform().Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Graph.Nodes["ep"].Schema
	cols := append(s.Names(), "", "missing")
	ops := append(task.Aggregates(), "nosuch")
	for _, n := range []int{dag.ColumnarAutoThreshold - 56, dag.ColumnarAutoThreshold + 344} {
		rows := adhocRows(n)
		byRows, err := table.FromRows(s, rows)
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := colstore.FromTable(byRows)
		coded := colstore.NewBuilder(s)
		for _, r := range rows {
			coded.Append(r)
		}
		for label, ep := range map[string]*table.Table{"row-backed": byRows, "plain": plain.ToTable(), "dictionary-coded": coded.Table()} {
			d.result = &batch.Result{Tables: map[string]*table.Table{"ep": ep}}
			for _, group := range s.Names() {
				for _, op := range ops {
					for _, col := range cols {
						at := fmt.Sprintf("%d rows %s: groupby/%s/%s/%s", n, label, group, op, col)
						got, gerr := d.AdhocQuery("ep", group, op, col)
						agg := task.AggSpec{Operator: op, ApplyOn: col, OutField: op + "_" + col}
						if op == "count" && col == "" {
							agg = task.AggSpec{Operator: "count", OutField: "count"}
						}
						want, werr := (&task.GroupBySpec{GroupBy: []string{group}, Aggs: []task.AggSpec{agg}}).Exec(d.env, []*table.Table{ep}, []string{"ep"})
						if fmt.Sprint(gerr) != fmt.Sprint(werr) {
							t.Fatalf("%s: error %v, want %v", at, gerr, werr)
						}
						if werr != nil {
							continue
						}
						if diff := cellDiff(got, want); diff != "" {
							t.Fatalf("%s: %s", at, diff)
						}
						gj, gjerr := connector.EncodeJSON(got)
						wj, wjerr := connector.EncodeJSON(want)
						gc, _ := connector.EncodeCSV(got)
						wc, _ := connector.EncodeCSV(want)
						if string(gj) != string(wj) || fmt.Sprint(gjerr) != fmt.Sprint(wjerr) || string(gc) != string(wc) {
							t.Fatalf("%s: served bodies differ:\n%s%v\n%s\nwant\n%s%v\n%s", at, gj, gjerr, gc, wj, wjerr, wc)
						}
						if kernel := got.Columns() != nil; kernel != (n >= dag.ColumnarAutoThreshold) {
							t.Fatalf("%s: ran on the kernel = %v", at, kernel)
						}
					}
				}
			}
		}
	}
}

// cellDiff describes the first difference between two tables' schemas,
// lengths, cell kinds or cell values ("" when they agree; NaN equals NaN).
func cellDiff(got, want *table.Table) string {
	if !got.Schema().Equal(want.Schema()) || got.Len() != want.Len() {
		return fmt.Sprintf("shape %s × %d, want %s × %d", got.Schema(), got.Len(), want.Schema(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		for c := 0; c < want.Schema().Len(); c++ {
			g, w := got.At(i, c), want.At(i, c)
			same := g.Kind() == w.Kind() && g.String() == w.String()
			if same && w.Kind() == value.Float {
				same = g.Float() == w.Float() || math.IsNaN(g.Float()) && math.IsNaN(w.Float())
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %v (kind %v), want %v (kind %v)", i, c, g, g.Kind(), w, w.Kind())
			}
		}
	}
	return ""
}

// hotFlow is the viewer's loop the benchmark's serve_hot workload
// drives: a picker whose selection filters two dependents, each a
// widget filter and one single-key sum over a column-backed endpoint of
// a few hundred rows, so a selection refreshes both through the cube.
const hotFlow = `D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  +D.by_region: D.sales | T.sum_region
  +D.by_region_product: D.sales | T.sum_region_product

T:
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  sum_region_product:
    type: groupby
    groupby: [region, product]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  pick:
    type: filter_by
    filter_by: [region]
    filter_source: W.picker
    filter_val: [text]
  per_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: total
        out_field: total

W:
  picker:
    type: List
    source: D.by_region
    text: region
  detail:
    type: Grid
    source: D.by_region_product | T.pick | T.per_product
  chart:
    type: BarChart
    source: D.by_region_product | T.pick | T.per_product
    x: product
    y: total

L:
  description: Sales by region
  rows:
    - [span3: W.picker, span9: W.chart]
    - [span12: W.detail]
`

// TestInteractionAllocs bounds what one selection allocates on hotFlow
// over 2,000 sales rows: the cube filters by class id and folds into
// buckets indexed by it, and the refreshed widgets are bound to tables
// built from those buckets, so a Select costs a few dozen objects, not
// one per row touched.
func TestInteractionAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var csv []byte
	for i := 0; i < 2000; i++ {
		csv = fmt.Appendf(csv, "r%d,p%d,%d\n", i%16, rng.Intn(40), 1+rng.Intn(1000))
	}
	f, err := flowfile.Parse("hot", hotFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewPlatform().Compile(f, map[string][]byte{"sales.csv": csv})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if d.plans["detail"].cube == nil || d.plans["chart"].cube == nil {
		t.Fatal("the dependents must refresh through the cube")
	}
	keys := make([]string, 16)
	for k := range keys {
		keys[k] = fmt.Sprintf("r%d", k)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		if err := d.Select("picker", keys[i%16]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("a Select allocates %.0f objects, want at most 40", allocs)
	}
}
