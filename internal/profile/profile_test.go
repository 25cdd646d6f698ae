package profile

import (
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

func sampleTable() *table.Table {
	t := table.New(schema.MustFromNames("name", "score", "note"))
	t.AppendValues(value.NewString("a"), value.NewInt(10), value.VNull)
	t.AppendValues(value.NewString("b"), value.NewInt(20), value.NewString("x"))
	t.AppendValues(value.NewString("a"), value.NewInt(30), value.VNull)
	t.AppendValues(value.NewString("c"), value.NewFloat(40), value.NewString("x"))
	return t
}

func TestProfileStats(t *testing.T) {
	stats := Profile(sampleTable())
	if len(stats) != 3 {
		t.Fatalf("columns = %d", len(stats))
	}
	name := stats[0]
	if name.Column != "name" || name.Kind != value.String || name.Distinct != 3 ||
		name.TopValue != "a" || name.TopCount != 2 || name.Nulls != 0 {
		t.Errorf("name stats = %+v", name)
	}
	score := stats[1]
	if score.Kind != value.Int || score.Min != "10" || score.Max != "40" || score.Mean != 25 {
		t.Errorf("score stats = %+v", score)
	}
	if score.Stddev < 11 || score.Stddev > 12 {
		t.Errorf("score stddev = %v", score.Stddev)
	}
	note := stats[2]
	if note.Nulls != 2 || note.Distinct != 1 {
		t.Errorf("note stats = %+v", note)
	}
}

// TestProfileMixedKindIsDeterministic: a column with one int, one float
// and one bool ties three kinds, and every profile names the same one.
func TestProfileMixedKindIsDeterministic(t *testing.T) {
	tb := table.New(schema.MustFromNames("score"))
	tb.AppendValues(value.NewFloat(2.5))
	tb.AppendValues(value.NewInt(3))
	tb.AppendValues(value.NewBool(true))
	want := Profile(tb)[0].Kind
	for range 20 {
		if got := Profile(tb)[0].Kind; got != want {
			t.Fatalf("a tied column profiled as %s, then as %s", want, got)
		}
	}
}

func TestProfileEmptyTable(t *testing.T) {
	empty := table.New(schema.MustFromNames("a"))
	stats := Profile(empty)
	if len(stats) != 1 || stats[0].Rows != 0 || stats[0].Distinct != 0 {
		t.Errorf("empty stats = %+v", stats)
	}
	tab := Table(stats)
	if tab.Len() != 1 {
		t.Errorf("table rows = %d", tab.Len())
	}
}

func TestBuildMeta(t *testing.T) {
	// A small real dashboard to profile.
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"s.csv": []byte("east,10\nwest,20\neast,\n")},
	})
	f, err := flowfile.Parse("sales", `
D:
  sales: [region, amount]

D.sales:
  source: mem:s.csv
  format: csv

F:
  +D.by_region: D.sales | T.g

T:
  g:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMeta(d); err == nil {
		t.Fatal("BuildMeta before Run should fail")
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	meta, err := BuildMeta(d)
	if err != nil {
		t.Fatal(err)
	}
	// The meta-dashboard has one profile endpoint per materialized data
	// object (sales + by_region).
	eps := meta.EndpointNames()
	if len(eps) != 2 {
		t.Fatalf("meta endpoints = %v", eps)
	}
	salesProfile, ok := meta.Endpoint("sales_profile")
	if !ok {
		t.Fatal("sales_profile missing")
	}
	if salesProfile.Len() != 2 { // region, amount
		t.Fatalf("sales profile rows:\n%s", salesProfile.Format(0))
	}
	// The amount column has one null (the cleansing signal §6 cares
	// about).
	if got := salesProfile.Cell(1, "nulls").Int(); got != 1 {
		t.Errorf("amount nulls = %d:\n%s", got, salesProfile.Format(0))
	}
	// And it renders like any dashboard.
	var b strings.Builder
	if err := meta.RenderHTML(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Data profile: sales") {
		t.Error("meta dashboard title missing")
	}
}

// TestBuildMetaProfilesInlineNodes: a data object that only group-bys
// read runs inline and is never built, and so does one that only feeds a
// join's probe side, yet the meta-dashboard lists each with the profile
// it has when it is built — here, by the row engine.
func TestBuildMetaProfilesInlineNodes(t *testing.T) {
	src := `
D:
  sales: [region, amount]

D.sales:
  source: mem:s.csv
  format: csv

F:
  D.kept: D.sales | T.keep | T.double
  +D.by_region: D.kept | T.g
  +D.totals: D.kept | T.all
  D.scaled: D.sales | T.triple
  +D.joined: (D.scaled, D.totals) | T.j

T:
  keep:
    type: filter_by
    filter_expression: amount > 10
  double:
    type: map
    operator: expr
    expression: amount * 2
    output: twice
  g:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: max
        apply_on: twice
        out_field: top
  all:
    type: groupby
    groupby: [region]
  triple:
    type: map
    operator: expr
    expression: amount * 3
    output: thrice
  j:
    type: join
    left: scaled by region
    right: totals by region
    join_condition: left outer
`
	metas := map[string]*dashboard.Dashboard{}
	for _, mode := range []string{"", "off"} {
		p := dashboard.NewPlatform()
		p.Columnar = mode
		p.Connectors = connector.NewRegistry(connector.Options{
			Mem: map[string][]byte{"s.csv": []byte("east,10\nwest,20\neast,\nnorth,35\nwest,12\n")},
		})
		f, err := flowfile.Parse("sales", src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Compile(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		for _, inline := range []string{"kept", "scaled"} {
			if _, built := d.Result().Tables[inline]; built != (mode == "off") {
				t.Fatalf("columnar=%q: D.%s built = %v", mode, inline, built)
			}
		}
		if metas[mode], err = BuildMeta(d); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := metas[""].EndpointNames(), metas["off"].EndpointNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("meta endpoints %v, want %v", got, want)
	}
	for _, inline := range []string{"kept", "scaled"} {
		got, ok := metas[""].Endpoint(inline + "_profile")
		want, _ := metas["off"].Endpoint(inline + "_profile")
		if !ok || !got.Equal(want) {
			t.Errorf("inline D.%s profiles as\n%v\nwant\n%s", inline, got, want.Format(0))
		}
	}
}
