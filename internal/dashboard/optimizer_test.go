package dashboard

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs/history"
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
// per-filter selectivities (via fused sub-records), run two's plan
// reorders on that history and pushes the now-leading predicate into
// the csv decode — and the answer never changes.
func TestOptimizerLearnsFromHistory(t *testing.T) {
	p := optimizerPlatform(t, true)
	d := compileOptimizerFlow(t, p)

	if d.Explain() == nil {
		t.Fatal("Explain returned nil with Optimize on")
	}
	if err := d.Run(); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	first := d.LastPlan()
	if first == nil {
		t.Fatal("LastPlan nil after run 1")
	}
	firstRows := endpointRows(t, d)

	// Run one must have grown selectivity profiles for both filters.
	profs := p.History.Profiles(d.flowHash)
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

	// Run two replans from observed evidence: region filter first, and
	// the predicate rides down into the source fetch.
	if err := d.Run(); err != nil {
		t.Fatalf("run 2: %v", err)
	}
	plan := d.LastPlan()
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
	if src == nil || src.Pushdown == nil || src.Pushdown.Predicate != "region == 'east'" {
		t.Fatalf("predicate did not reach the source: %+v", src)
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
// decode as nulls, the pushed predicate drops rows during the decode and
// its consumer filter is flagged for the oscillation guard — and the
// answer is the unoptimized one.
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
	planned := d.LastPlan().Node("raw").Pushdown
	if planned == nil || planned.Predicate != "region == 'east'" || !slices.Contains(planned.SkipColumns, "notes") {
		t.Fatalf("run 2 planned no pushdown for the uploaded source: %+v", planned)
	}
	if next := d.Explain().Node("raw").Pushdown; next == nil || next.Predicate != planned.Predicate || !slices.Equal(next.SkipColumns, planned.SkipColumns) {
		t.Fatalf("explain %+v disagrees with the executed plan %+v", next, planned)
	}
	raw, ok := d.Result().Table("raw")
	if !ok {
		t.Fatal("source table missing from the result")
	}
	if raw.Len() != 1 {
		t.Errorf("decoded %d rows, want 1: the pushed predicate was not applied while decoding", raw.Len())
	}
	for _, r := range raw.Rows() {
		if !r[2].IsNull() {
			t.Errorf("notes decoded as %q, want null: the projection was not applied", r[2])
		}
	}
	if !d.pushedFilters[dag.HintKey(planned.Consumer, "filter_by "+planned.Predicate)] {
		t.Errorf("consumer filter of the pushed predicate not flagged: %v", d.pushedFilters)
	}
	base := compile(optimizerPlatform(t, false))
	if err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if got, want := endpointRows(t, d), endpointRows(t, base); !reflect.DeepEqual(got, want) {
		t.Errorf("optimized answer %v, unoptimized %v", got, want)
	}
}
