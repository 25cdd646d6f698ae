package dashboard

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// salesCSV is shaped so the second filter (region) is far more
// selective than the first (amount): the optimizer has something real
// to learn from run one.
const salesCSV = `region,amount,notes
east,10,a
west,200,b
west,300,c
west,40,d
west,-5,e
west,60,f
`

const optimizerFlow = `
D:
  raw: [region, amount, notes]

D.raw:
  source: mem:sales.csv
  format: csv

F:
  D.mid: D.raw | T.wide | T.narrow
  +D.out: D.mid | T.agg

T:
  wide:
    type: filter_by
    filter_expression: amount > 0
  narrow:
    type: filter_by
    filter_expression: region == 'east'
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
`

func optimizerPlatform(t *testing.T, optimize bool) *Platform {
	t.Helper()
	p := NewPlatform()
	p.Optimize = optimize
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"sales.csv": []byte(salesCSV)},
	})
	p.History = history.NewRecorder(history.Options{})
	return p
}

func compileOptimizerFlow(t *testing.T, p *Platform) *Dashboard {
	t.Helper()
	f, err := flowfile.Parse("sales", optimizerFlow)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d
}

func endpointRows(t *testing.T, d *Dashboard) [][]string {
	t.Helper()
	out, ok := d.Endpoint("out")
	if !ok {
		t.Fatal("endpoint out missing")
	}
	var rows [][]string
	for _, r := range out.Rows() {
		var cells []string
		for _, v := range r {
			cells = append(cells, v.String())
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestOptimizerLearnsFromHistory drives the whole loop: run one records
// per-filter selectivities (one stage record per filter), run two's plan
// reorders on that history — and the answer never changes.
func TestOptimizerLearnsFromHistory(t *testing.T) {
	p := optimizerPlatform(t, true)
	d := compileOptimizerFlow(t, p)

	if d.Explain() == nil {
		t.Fatal("Explain returned nil with Optimize on")
	}
	if err := d.Run(); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	first := d.runPlan
	if first == nil {
		t.Fatal("no plan after run 1")
	}
	firstRows := endpointRows(t, d)

	// Run one must have grown selectivity profiles for both filters.
	profs := p.History.Profiles(d.FlowHash())
	bySel := map[string]float64{}
	for _, pr := range profs {
		if pr.SelSamples > 0 {
			bySel[pr.Stage] = pr.Selectivity
		}
	}
	if bySel["filter_by amount > 0"] == 0 || bySel["filter_by region == 'east'"] == 0 {
		t.Fatalf("filters missing selectivity profiles: %+v", bySel)
	}
	if bySel["filter_by region == 'east'"] >= bySel["filter_by amount > 0"] {
		t.Fatalf("fixture broken: region filter should be more selective: %+v", bySel)
	}

	// Run two replans from observed evidence: region filter first.
	if err := d.Run(); err != nil {
		t.Fatalf("run 2: %v", err)
	}
	plan := d.runPlan
	np := plan.Node("mid")
	if np == nil || len(np.Stages) == 0 || np.Stages[0].Stage != "filter_by region == 'east'" {
		t.Fatalf("history evidence did not reorder: %+v", np)
	}
	var reordered bool
	for _, dec := range np.Decisions {
		if dec.Rule == dag.RuleFilterReorder && dec.Evidence == dag.EvidenceHistory {
			reordered = true
		}
	}
	if !reordered {
		t.Fatalf("no history-evidence reorder decision: %+v", np.Decisions)
	}
	src := plan.Node("raw")
	if src == nil || src.Pushdown == nil {
		t.Fatalf("no pushdown planned for the source: %+v", src)
	}
	for _, col := range src.Pushdown.SkipColumns {
		if col == "region" || col == "amount" {
			t.Fatalf("live column %q scheduled for skip: %+v", col, src.Pushdown)
		}
	}

	// The optimized second run and an unoptimized platform agree
	// cell-for-cell on the endpoint.
	secondRows := endpointRows(t, d)
	base := optimizerPlatform(t, false)
	bd := compileOptimizerFlow(t, base)
	if bd.Explain() != nil {
		t.Fatal("Explain should be nil with Optimize off")
	}
	if err := bd.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseRows := endpointRows(t, bd)
	for _, got := range [][][]string{firstRows, secondRows} {
		if len(got) != len(baseRows) {
			t.Fatalf("row count drifted: %v vs %v", got, baseRows)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != baseRows[i][j] {
					t.Fatalf("cell (%d,%d) drifted: %v vs %v", i, j, got, baseRows)
				}
			}
		}
	}
}

// TestUploadedFileHonoursPushdown: a `data:` source (an uploaded file)
// gets the same pushdown offer a connector source gets, so what
// `explain` says about it is what the run does — never-read columns
// decode as nulls — and the answer is the unoptimized one.
func TestUploadedFileHonoursPushdown(t *testing.T) {
	flow := strings.Replace(optimizerFlow, "source: mem:sales.csv", "source: data:sales.csv", 1)
	compile := func(p *Platform) *Dashboard {
		f, err := flowfile.Parse("sales", flow)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		d, err := p.Compile(f, map[string][]byte{"sales.csv": []byte(salesCSV)})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return d
	}
	p := optimizerPlatform(t, true)
	d := compile(p)
	for run := 1; run <= 2; run++ {
		if err := d.Run(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	planned := d.runPlan.Node("raw").Pushdown
	if planned == nil || !slices.Contains(planned.SkipColumns, "notes") {
		t.Fatalf("run 2 planned no pushdown for the uploaded source: %+v", planned)
	}
	if next := d.Explain().Node("raw").Pushdown; next == nil || !slices.Equal(next.SkipColumns, planned.SkipColumns) {
		t.Fatalf("explain %+v disagrees with the executed plan %+v", next, planned)
	}
	raw, ok := d.Result().Table("raw")
	if !ok {
		t.Fatal("source table missing from the result")
	}
	if want := len(csvRows(salesCSV)); raw.Len() != want {
		t.Errorf("decoded %d rows, want all %d", raw.Len(), want)
	}
	for _, r := range raw.Rows() {
		if !r[2].IsNull() {
			t.Errorf("notes decoded as %q, want null: the projection was not applied", r[2])
		}
	}
	base := compile(optimizerPlatform(t, false))
	if err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if got, want := endpointRows(t, d), endpointRows(t, base); !reflect.DeepEqual(got, want) {
		t.Errorf("optimized answer %v, unoptimized %v", got, want)
	}
}

// TestSBINSourceHonoursProjection: an sbin source is offered the plan's
// projection and applies it — the never-read column decodes as nulls and
// the decode span says so — and every endpoint is the unoptimized one.
func TestSBINSourceHonoursProjection(t *testing.T) {
	src := table.New(schema.MustFromNames("region", "amount", "notes"))
	for _, r := range csvRows(salesCSV) {
		src.AppendValues(value.NewString(r[0]), value.Parse(r[1]), value.NewString(r[2]))
	}
	flow := strings.Replace(optimizerFlow, "source: mem:sales.csv\n  format: csv", "source: mem:sales.sbin\n  format: sbin", 1)
	run := func(optimize bool) (*Dashboard, *obs.Trace) {
		p := optimizerPlatform(t, optimize)
		p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{"sales.sbin": connector.EncodeSBIN(src)}})
		f, err := flowfile.Parse("sales", flow)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		d, err := p.Compile(f, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		tr := obs.NewTrace("sales")
		d.SetTracer(tr)
		if err := d.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return d, tr
	}
	d, tr := run(true)
	if pd := d.runPlan.Node("raw").Pushdown; pd == nil || !slices.Contains(pd.SkipColumns, "notes") {
		t.Fatalf("the plan skips no column of the sbin source: %+v", pd)
	}
	var decoded bool
	for _, sp := range tr.Spans() {
		if sp.Name == "decode sbin" {
			decoded = true
			if !sp.HasFlag("pushdown") {
				t.Errorf("decode span flags %v, want pushdown", sp.Flags)
			}
		}
	}
	if !decoded {
		t.Error("no decode sbin span")
	}
	raw, _ := d.Result().Table("raw")
	if raw.Len() != src.Len() {
		t.Fatalf("decoded %d rows, want all %d", raw.Len(), src.Len())
	}
	for i := 0; i < raw.Len(); i++ {
		if v := raw.At(i, 2); !v.IsNull() {
			t.Fatalf("notes decoded as %q, want null: the projection was not applied", v)
		}
	}
	base, _ := run(false)
	for _, name := range d.Graph.Endpoints() {
		got, _ := d.Endpoint(name)
		want, _ := base.Endpoint(name)
		if !got.Equal(want) {
			t.Errorf("endpoint %s: optimized\n%s\nunoptimized\n%s", name, got.Format(0), want.Format(0))
		}
	}
}

// csvRows splits the data rows of a header-led CSV literal.
func csvRows(csv string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		rows = append(rows, strings.Split(line, ","))
	}
	return rows
}
