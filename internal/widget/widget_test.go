package widget

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// defFromFlow parses one widget definition from flow-file text.
func defFromFlow(t *testing.T, src string) *flowfile.WidgetDef {
	t.Helper()
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.WidgetOrder) == 0 {
		t.Fatal("no widget parsed")
	}
	return f.Widgets[f.WidgetOrder[0]]
}

func sampleData() *table.Table {
	tb := table.New(schema.MustFromNames("project", "total_wt", "technology"))
	tb.AppendValues(value.NewString("pig"), value.NewInt(10), value.NewString("data"))
	tb.AppendValues(value.NewString("hive"), value.NewInt(30), value.NewString("data"))
	return tb
}

type soloEnv struct{ inst map[string]*Instance }

func (e soloEnv) Widget(name string) (*Instance, bool) { i, ok := e.inst[name]; return i, ok }

func render(t *testing.T, inst *Instance) string {
	t.Helper()
	var b strings.Builder
	if err := inst.Render(soloEnv{inst: map[string]*Instance{inst.Def.Name: inst}}, &b); err != nil {
		t.Fatalf("render: %v", err)
	}
	return b.String()
}

func TestBubbleChartLifecycle(t *testing.T) {
	def := defFromFlow(t, `
W:
  bubble:
    type: BubbleChart
    source: D.project_data
    text: project
    size: total_wt
    legend_text: technology
    default_selection: true
    default_selection_key: text
    default_selection_value: 'pig'
`)
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	// Default selection applied (§3.5 default_selection attributes).
	if vals, ok := inst.SelectionValues("text"); !ok || vals[0] != "pig" {
		t.Errorf("default selection = %v, %v", vals, ok)
	}
	if err := inst.Bind(sampleData()); err != nil {
		t.Fatal(err)
	}
	out := render(t, inst)
	for _, want := range []string{`data-widget="bubble"`, `data-key="pig"`, "selected", "<circle"} {
		if !strings.Contains(out, want) {
			t.Errorf("bubble render missing %q", want)
		}
	}
}

func TestUnknownTypeAndMissingAttrs(t *testing.T) {
	def := defFromFlow(t, "W:\n  x:\n    type: HoloDeck\n    source: D.d\n")
	if _, err := NewInstance(def); err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Errorf("unknown type error = %v", err)
	}
	def = defFromFlow(t, "W:\n  x:\n    type: WordCloud\n    source: D.d\n    size: n\n")
	if _, err := NewInstance(def); err == nil || !strings.Contains(err.Error(), "text") {
		t.Errorf("missing attr error = %v", err)
	}
}

func TestBindValidatesColumns(t *testing.T) {
	def := defFromFlow(t, "W:\n  x:\n    type: WordCloud\n    source: D.d\n    text: ghost\n    size: total_wt\n")
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Bind(sampleData()); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("bind error = %v", err)
	}
}

func TestSliderSelectionSemantics(t *testing.T) {
	def := defFromFlow(t, `
W:
  dur:
    type: Slider
    source: ['2013-05-02', '2013-05-27']
    static: true
    range: true
    slider_type: date
`)
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	// Static range sliders default to their full range.
	vals, ok := inst.SelectionValues("date")
	if !ok || vals[0] != "range:" || vals[1] != "2013-05-02" || vals[2] != "2013-05-27" {
		t.Errorf("default slider selection = %v", vals)
	}
	inst.SelectRange("2013-05-10", "2013-05-12")
	vals, _ = inst.SelectionValues("anything")
	if vals[1] != "2013-05-10" {
		t.Errorf("range selection = %v", vals)
	}
	out := render(t, inst)
	if !strings.Contains(out, `data-lo="2013-05-10"`) {
		t.Errorf("slider render missing selection: %s", out)
	}
}

func TestDiscreteSelectionAnswersOnlyKeyColumn(t *testing.T) {
	def := defFromFlow(t, "W:\n  l:\n    type: List\n    source: D.d\n    text: project\n")
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	inst.Select("pig")
	if _, ok := inst.SelectionValues("size"); ok {
		t.Error("list selection answered through a non-key column")
	}
	if vals, ok := inst.SelectionValues("text"); !ok || vals[0] != "pig" {
		t.Errorf("key-column selection = %v, %v", vals, ok)
	}
	inst.Select() // clear
	if _, ok := inst.SelectionValues("text"); ok {
		t.Error("cleared selection still answers")
	}
}

func TestRenderAllChartTypes(t *testing.T) {
	xy := table.New(schema.MustFromNames("date", "noOfTweets", "team", "color"))
	xy.AppendValues(value.NewString("d1"), value.NewInt(3), value.NewString("CSK"), value.NewString("#fc0"))
	xy.AppendValues(value.NewString("d2"), value.NewInt(5), value.NewString("CSK"), value.NewString("#fc0"))
	xy.AppendValues(value.NewString("d1"), value.NewInt(2), value.NewString("MI"), value.NewString("#04a"))

	cases := []struct {
		src   string
		data  *table.Table
		wants []string
	}{
		{
			"W:\n  w:\n    type: LineChart\n    source: D.d\n    x: date\n    y: noOfTweets\n    serie: team\n",
			xy, []string{"<path", `data-serie="CSK"`, `data-serie="MI"`},
		},
		{
			"W:\n  w:\n    type: Streamgraph\n    source: D.d\n    x: date\n    y: noOfTweets\n    serie: team\n    color: color\n",
			xy, []string{"streamgraph", "<path"},
		},
		{
			"W:\n  w:\n    type: BarChart\n    source: D.d\n    x: project\n    y: total_wt\n",
			sampleData(), []string{"<rect", `data-key="hive"`},
		},
		{
			"W:\n  w:\n    type: Pie\n    source: D.d\n    text: project\n    size: total_wt\n",
			sampleData(), []string{"<path", `data-key="pig"`},
		},
		{
			"W:\n  w:\n    type: WordCloud\n    source: D.d\n    text: project\n    size: total_wt\n    show_tooltip: true\n",
			sampleData(), []string{"font-size", "title="},
		},
		{
			"W:\n  w:\n    type: Grid\n    source: D.d\n",
			sampleData(), []string{"<table", "<th>project</th>", "<td>hive</td>"},
		},
		{
			"W:\n  w:\n    type: HTML\n    source: D.d\n    tag: article\n",
			sampleData(), []string{"<article", "<dt>project</dt>", "<dd>pig</dd>"},
		},
	}
	for _, c := range cases {
		def := defFromFlow(t, c.src)
		inst, err := NewInstance(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Type, err)
		}
		if err := inst.Bind(c.data); err != nil {
			t.Fatalf("%s bind: %v", def.Type, err)
		}
		out := render(t, inst)
		for _, want := range c.wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s render missing %q:\n%s", def.Type, want, out)
			}
		}
	}
}

func TestMapMarkerRender(t *testing.T) {
	def := defFromFlow(t, `
W:
  m:
    type: MapMarker
    source: D.d
    country: IND
    markers:
      - marker1:
          type: circle_marker
          latlong_value: point_one
          markersize: noOfTweets
          fill_color: color
`)
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New(schema.MustFromNames("point_one", "noOfTweets", "color"))
	tb.AppendValues(value.NewString("19.07,72.87"), value.NewInt(120), value.NewString("#004ba0"))
	tb.AppendValues(value.NewString("not-a-point"), value.NewInt(5), value.NewString("#fff"))
	if err := inst.Bind(tb); err != nil {
		t.Fatal(err)
	}
	out := render(t, inst)
	if strings.Count(out, "<circle") != 1 {
		t.Errorf("map should draw exactly the parseable marker:\n%s", out)
	}
	if !strings.Contains(out, `fill="#004ba0"`) {
		t.Errorf("marker color missing:\n%s", out)
	}
}

func TestSubLayoutAndTabs(t *testing.T) {
	f, err := flowfile.Parse("t", `
W:
  inner:
    type: Grid
    source: D.d
  panel:
    type: Layout
    rows:
      - [span12: W.inner]
  tabs:
    type: TabLayout
    tabs:
      - name: 'First'
        body: W.inner
`)
	if err != nil {
		t.Fatal(err)
	}
	instances := map[string]*Instance{}
	for _, name := range f.WidgetOrder {
		inst, err := NewInstance(f.Widgets[name])
		if err != nil {
			t.Fatal(err)
		}
		instances[name] = inst
	}
	instances["inner"].Bind(sampleData())
	env := soloEnv{inst: instances}
	var b strings.Builder
	if err := instances["panel"].Render(env, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<table") {
		t.Errorf("sub-layout did not render its child:\n%s", b.String())
	}
	b.Reset()
	if err := instances["tabs"].Render(env, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `data-tab="First"`) || !strings.Contains(b.String(), "<table") {
		t.Errorf("tab layout wrong:\n%s", b.String())
	}
}

func TestCustomWidgetRegistration(t *testing.T) {
	if err := Register(&Descriptor{Type: "Grid"}); err == nil {
		t.Error("replacing a platform widget should fail")
	}
	err := Register(&Descriptor{
		Type:        "TestGauge",
		DataAttrs:   []Attr{{Name: "value", Required: true}},
		NeedsSource: true,
		Render: func(inst *Instance, env RenderEnv, w io.Writer) error {
			_, err := fmt.Fprintf(w, "<gauge>%d</gauge>", inst.Data.Len())
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	def := defFromFlow(t, "W:\n  g:\n    type: TestGauge\n    source: D.d\n    value: total_wt\n")
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	inst.Bind(sampleData())
	if out := render(t, inst); out != "<gauge>2</gauge>" {
		t.Errorf("custom render = %q", out)
	}
}

func TestHTMLEscaping(t *testing.T) {
	def := defFromFlow(t, "W:\n  l:\n    type: List\n    source: D.d\n    text: project\n")
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New(schema.MustFromNames("project"))
	tb.AppendValues(value.NewString(`<script>alert("x")</script>`))
	inst.Bind(tb)
	out := render(t, inst)
	if strings.Contains(out, "<script>") {
		t.Errorf("unescaped HTML in output:\n%s", out)
	}
}

// TestLineChartOrdersXByValue pins x order by value.Compare: ints of
// mixed digit counts run 8, 9, 10, 11, not as strings 10, 11, 8, 9, and
// each x keeps the display form it was first seen with.
func TestLineChartOrdersXByValue(t *testing.T) {
	def := defFromFlow(t, "W:\n  w:\n    type: LineChart\n    source: D.d\n    x: x\n    y: y\n")
	inst, err := NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New(schema.MustFromNames("x", "y"))
	for _, x := range []int64{10, 8, 11, 9} {
		tb.AppendValues(value.NewInt(x), value.NewInt(x))
	}
	tb.AppendValues(value.NewFloat(10), value.NewInt(1)) // displays "10": the same x as int 10
	if err := inst.Bind(tb); err != nil {
		t.Fatal(err)
	}
	out := render(t, inst)
	// x 8, 9, 10, 11 sit at 0, 200, 400, 600; y scales by the max, 11.
	want := `d="M0.0 69.1 L200.0 52.7 L400.0 36.4 L400.0 183.6 L600.0 20.0"`
	if !strings.Contains(out, want) {
		t.Errorf("line path wrong, want %s in:\n%s", want, out)
	}
}

func TestHTMLWidgetTag(t *testing.T) {
	for _, tag := range []string{"article", "h2", "section"} {
		inst, err := NewInstance(defFromFlow(t, "W:\n  w:\n    type: HTML\n    source: D.d\n    tag: '"+tag+"'\n"))
		if err != nil {
			t.Fatalf("tag %q rejected: %v", tag, err)
		}
		inst.Bind(sampleData())
		if out := render(t, inst); !strings.HasPrefix(out, "<"+tag+" ") || !strings.HasSuffix(out, "</"+tag+">") {
			t.Errorf("tag %q rendered as:\n%s", tag, out)
		}
	}
	for _, tag := range []string{"div onmouseover=alert(1)", "script", "style", "iframe", "Div", "2col", "a-b", `x"`} {
		_, err := NewInstance(defFromFlow(t, "W:\n  bad:\n    type: HTML\n    source: D.d\n    tag: '"+tag+"'\n"))
		if err == nil || !strings.Contains(err.Error(), "W.bad") || !strings.Contains(err.Error(), "tag") {
			t.Errorf("tag %q: error = %v, want one naming W.bad and its tag", tag, err)
		}
	}
}
