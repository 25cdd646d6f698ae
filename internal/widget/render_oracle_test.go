package widget

import (
	"bytes"
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// The built-in renderers as they were before they appended into the page
// buffer: every piece written by fmt, every cell read by column name, and
// labels and sizes gathered into slices first. They are the oracle the
// Markup renderers are held to (the same bytes), and nothing else calls
// them. LineChart and Streamgraph order x as strings here; the renderers
// order it by value.Compare, which agrees whenever x holds only strings.

// oracleRenderer is the oracle for a built-in widget type.
func oracleRenderer(typ string) func(*Instance, RenderEnv, io.Writer) error {
	return map[string]func(*Instance, RenderEnv, io.Writer) error{
		"BubbleChart": oracleBubble, "LineChart": oracleLine, "BarChart": oracleBar, "Pie": oraclePie,
		"WordCloud": oracleWordCloud, "Streamgraph": oracleStreamgraph, "Slider": oracleSlider, "List": oracleList,
		"MapMarker": oracleMapMarker, "HTML": oracleHTML, "Grid": oracleGrid, "Layout": oracleSubLayout,
		"TabLayout": oracleTabLayout,
	}[typ]
}

func esc(s string) string { return html.EscapeString(s) }

// rows extracts (label, weight) pairs for label/size widgets.
func oracleLabelSizeRows(inst *Instance, labelAttr, sizeAttr string) (labels []string, sizes []float64) {
	if inst.Data == nil {
		return nil, nil
	}
	lc := inst.DataColumn(labelAttr)
	sc := inst.DataColumn(sizeAttr)
	for i := 0; i < inst.Data.Len(); i++ {
		labels = append(labels, inst.Data.Cell(i, lc).String())
		sizes = append(sizes, inst.Data.Cell(i, sc).Float())
	}
	return labels, sizes
}

func oracleMaxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if m == 0 {
		m = 1
	}
	return m
}

func oracleBubble(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := oracleLabelSizeRows(inst, "text", "size")
	maxS := oracleMaxOf(sizes)
	cols := int(math.Ceil(math.Sqrt(float64(len(labels)))))
	if cols == 0 {
		cols = 1
	}
	cell := 90.0
	width := float64(cols) * cell
	rowsN := (len(labels) + cols - 1) / cols
	fmt.Fprintf(w, `<svg class="widget bubble" data-widget=%q viewBox="0 0 %.0f %.0f">`, inst.Def.Name, width, float64(rowsN)*cell)
	sel := map[string]bool{}
	for _, s := range inst.Selection {
		sel[s] = true
	}
	for i, label := range labels {
		r := 10 + 30*math.Sqrt(sizes[i]/maxS)
		cx := (float64(i%cols) + 0.5) * cell
		cy := (float64(i/cols) + 0.5) * cell
		cls := "bubble-node"
		if sel[label] {
			cls += " selected"
		}
		fmt.Fprintf(w, `<circle class=%q cx="%.1f" cy="%.1f" r="%.1f" data-key=%q/>`, cls, cx, cy, r, esc(label))
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`, cx, cy, esc(label))
	}
	_, err := fmt.Fprint(w, "</svg>")
	return err
}

func oracleLine(inst *Instance, env RenderEnv, w io.Writer) error {
	return oracleXYPaths(inst, w, "line")
}

func oracleStreamgraph(inst *Instance, env RenderEnv, w io.Writer) error {
	return oracleXYPaths(inst, w, "streamgraph")
}

// oracleXYPaths draws one polyline (or stacked band) per serie.
func oracleXYPaths(inst *Instance, w io.Writer, kind string) error {
	if inst.Data == nil {
		fmt.Fprintf(w, `<svg class="widget %s" data-widget=%q></svg>`, kind, inst.Def.Name)
		return nil
	}
	xc := inst.DataColumn("x")
	yc := inst.DataColumn("y")
	sc := inst.DataColumn("serie")
	type pt struct {
		x string
		y float64
	}
	series := map[string][]pt{}
	var serieOrder []string
	xset := map[string]bool{}
	var xs []string
	for i := 0; i < inst.Data.Len(); i++ {
		s := "all"
		if sc != "" {
			s = inst.Data.Cell(i, sc).String()
		}
		if _, ok := series[s]; !ok {
			serieOrder = append(serieOrder, s)
		}
		x := inst.Data.Cell(i, xc).String()
		if !xset[x] {
			xset[x] = true
			xs = append(xs, x)
		}
		series[s] = append(series[s], pt{x: x, y: inst.Data.Cell(i, yc).Float()})
	}
	sort.Strings(xs)
	xpos := map[string]float64{}
	width := 600.0
	for i, x := range xs {
		if len(xs) > 1 {
			xpos[x] = width * float64(i) / float64(len(xs)-1)
		} else {
			xpos[x] = width / 2
		}
	}
	maxY := 1.0
	for _, pts := range series {
		for _, p := range pts {
			if p.y > maxY {
				maxY = p.y
			}
		}
	}
	height := 200.0
	fmt.Fprintf(w, `<svg class="widget %s" data-widget=%q viewBox="0 0 %.0f %.0f">`, kind, inst.Def.Name, width, height)
	for _, s := range serieOrder {
		pts := series[s]
		sort.Slice(pts, func(a, b int) bool { return pts[a].x < pts[b].x })
		var b strings.Builder
		for i, p := range pts {
			if i == 0 {
				b.WriteString("M")
			} else {
				b.WriteString(" L")
			}
			fmt.Fprintf(&b, "%.1f %.1f", xpos[p.x], height-(p.y/maxY)*height*0.9)
		}
		fmt.Fprintf(w, `<path class="serie" data-serie=%q d=%q fill="none"/>`, esc(s), b.String())
	}
	_, err := fmt.Fprint(w, "</svg>")
	return err
}

func oracleBar(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := oracleLabelSizeRows(inst, "x", "y")
	maxS := oracleMaxOf(sizes)
	bw := 40.0
	width := bw * float64(len(labels))
	height := 200.0
	fmt.Fprintf(w, `<svg class="widget bar" data-widget=%q viewBox="0 0 %.0f %.0f">`, inst.Def.Name, width, height)
	for i, label := range labels {
		h := (sizes[i] / maxS) * height * 0.9
		fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" data-key=%q/>`,
			float64(i)*bw+4, height-h, bw-8, h, esc(label))
	}
	_, err := fmt.Fprint(w, "</svg>")
	return err
}

func oraclePie(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := oracleLabelSizeRows(inst, "text", "size")
	total := 0.0
	for _, s := range sizes {
		total += s
	}
	if total == 0 {
		total = 1
	}
	fmt.Fprintf(w, `<svg class="widget pie" data-widget=%q viewBox="-1.1 -1.1 2.2 2.2">`, inst.Def.Name)
	angle := -math.Pi / 2
	for i, label := range labels {
		frac := sizes[i] / total
		a2 := angle + frac*2*math.Pi
		large := 0
		if frac > 0.5 {
			large = 1
		}
		fmt.Fprintf(w, `<path data-key=%q d="M0 0 L%.4f %.4f A1 1 0 %d 1 %.4f %.4f Z"/>`,
			esc(label), math.Cos(angle), math.Sin(angle), large, math.Cos(a2), math.Sin(a2))
		angle = a2
	}
	_, err := fmt.Fprint(w, "</svg>")
	return err
}

func oracleWordCloud(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := oracleLabelSizeRows(inst, "text", "size")
	maxS := oracleMaxOf(sizes)
	fmt.Fprintf(w, `<div class="widget wordcloud" data-widget=%q>`, inst.Def.Name)
	for i, label := range labels {
		pt := 10 + 22*sizes[i]/maxS
		title := ""
		if inst.Def.Config.Bool("show_tooltip") {
			title = fmt.Sprintf(` title="%s: %g"`, esc(label), sizes[i])
		}
		fmt.Fprintf(w, `<span style="font-size:%.0fpx" data-key=%q%s>%s</span> `, pt, esc(label), title, esc(label))
	}
	_, err := fmt.Fprint(w, "</div>")
	return err
}

func oracleSlider(inst *Instance, env RenderEnv, w io.Writer) error {
	vals := inst.Def.Static
	if len(vals) == 0 && inst.Data != nil && inst.Data.Len() > 0 {
		col := inst.Data.Schema().Col(0).Name
		vals = []string{inst.Data.Cell(0, col).String(), inst.Data.Cell(inst.Data.Len()-1, col).String()}
	}
	lo, hi := "", ""
	if len(vals) >= 2 {
		lo, hi = vals[0], vals[len(vals)-1]
	}
	selLo, selHi := lo, hi
	if inst.RangeSel && len(inst.Selection) >= 2 {
		selLo, selHi = inst.Selection[0], inst.Selection[1]
	}
	_, err := fmt.Fprintf(w,
		`<div class="widget slider %s" data-widget=%q data-min=%q data-max=%q data-lo=%q data-hi=%q></div>`,
		esc(inst.Def.Attr("slider_type")), inst.Def.Name, esc(lo), esc(hi), esc(selLo), esc(selHi))
	return err
}

func oracleList(inst *Instance, env RenderEnv, w io.Writer) error {
	fmt.Fprintf(w, `<ul class="widget list" data-widget=%q>`, inst.Def.Name)
	sel := map[string]bool{}
	for _, s := range inst.Selection {
		sel[s] = true
	}
	if inst.Data != nil {
		col := inst.DataColumn("text")
		for i := 0; i < inst.Data.Len(); i++ {
			label := inst.Data.Cell(i, col).String()
			cls := ""
			if sel[label] {
				cls = ` class="selected"`
			}
			fmt.Fprintf(w, `<li%s data-key=%q>%s</li>`, cls, esc(label), esc(label))
		}
	}
	_, err := fmt.Fprint(w, "</ul>")
	return err
}

func oracleMapMarker(inst *Instance, env RenderEnv, w io.Writer) error {
	fmt.Fprintf(w, `<svg class="widget map" data-widget=%q data-country=%q viewBox="0 0 400 400">`,
		inst.Def.Name, esc(inst.Def.Attr("country")))
	markers := inst.Def.Config.Get("markers")
	if inst.Data != nil && markers != nil && markers.Kind == flowfile.ListNode {
		for _, m := range markers.Items {
			cfg := markerConfig(m)
			latlongCol := cfg.Str("latlong_value")
			sizeCol := cfg.Str("markersize")
			colorCol := cfg.Str("fill_color")
			var maxSize float64 = 1
			for i := 0; i < inst.Data.Len(); i++ {
				if s := inst.Data.Cell(i, sizeCol).Float(); s > maxSize {
					maxSize = s
				}
			}
			for i := 0; i < inst.Data.Len(); i++ {
				lat, lon, ok := oracleParseLatLong(inst.Data.Cell(i, latlongCol).String())
				if !ok {
					continue
				}
				// Project India's bounding box (roughly 6..36N, 68..98E)
				// into the viewport; other countries scale similarly.
				x := (lon - 68) / 30 * 400
				y := 400 - (lat-6)/30*400
				r := 3 + 12*math.Sqrt(inst.Data.Cell(i, sizeCol).Float()/maxSize)
				color := inst.Data.Cell(i, colorCol).String()
				if color == "" {
					color = "#888"
				}
				fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill=%q/>`, x, y, r, esc(color))
			}
		}
	}
	_, err := fmt.Fprint(w, "</svg>")
	return err
}

// oracleParseLatLong accepts "lat,long" pairs.
func oracleParseLatLong(s string) (lat, lon float64, ok bool) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, false
	}
	lat = value.Parse(parts[0]).Float()
	lon = value.Parse(parts[1]).Float()
	return lat, lon, true
}

func oracleHTML(inst *Instance, env RenderEnv, w io.Writer) error {
	tag := inst.Def.Attr("tag")
	if tag == "" {
		tag = "section"
	}
	fmt.Fprintf(w, `<%s class="widget html" data-widget=%q>`, tag, inst.Def.Name)
	if inst.Data != nil && inst.Data.Len() > 0 {
		fmt.Fprint(w, "<dl>")
		for _, col := range inst.Data.Schema().Names() {
			fmt.Fprintf(w, "<dt>%s</dt><dd>%s</dd>", esc(col), esc(inst.Data.Cell(0, col).String()))
		}
		fmt.Fprint(w, "</dl>")
	}
	_, err := fmt.Fprintf(w, "</%s>", tag)
	return err
}

func oracleGrid(inst *Instance, env RenderEnv, w io.Writer) error {
	fmt.Fprintf(w, `<table class="widget grid" data-widget=%q>`, inst.Def.Name)
	if inst.Data != nil {
		fmt.Fprint(w, "<thead><tr>")
		for _, col := range inst.Data.Schema().Names() {
			fmt.Fprintf(w, "<th>%s</th>", esc(col))
		}
		fmt.Fprint(w, "</tr></thead><tbody>")
		for i := 0; i < inst.Data.Len(); i++ {
			fmt.Fprint(w, "<tr>")
			for c := 0; c < inst.Data.Schema().Len(); c++ {
				fmt.Fprintf(w, "<td>%s</td>", esc(inst.Data.At(i, c).String()))
			}
			fmt.Fprint(w, "</tr>")
		}
		fmt.Fprint(w, "</tbody>")
	}
	_, err := fmt.Fprint(w, "</table>")
	return err
}

// oracleSubLayout renders a widget of type Layout: a nested grid of
// sibling widgets (the sub-layouts of Appendix A.2).
func oracleSubLayout(inst *Instance, env RenderEnv, w io.Writer) error {
	rowsNode := inst.Def.Config.Get("rows")
	fmt.Fprintf(w, `<div class="widget layout" data-widget=%q>`, inst.Def.Name)
	if rowsNode != nil && rowsNode.Kind == flowfile.ListNode {
		for _, rn := range rowsNode.Items {
			row, err := flowfile.DecodeLayoutRow(rn)
			if err != nil {
				return err
			}
			fmt.Fprint(w, `<div class="row">`)
			for _, cell := range row.Cells {
				fmt.Fprintf(w, `<div class="col span%d">`, cell.Span)
				if err := oracleRenderChild(env, cell.Widget, w); err != nil {
					return err
				}
				fmt.Fprint(w, "</div>")
			}
			fmt.Fprint(w, "</div>")
		}
	}
	_, err := fmt.Fprint(w, "</div>")
	return err
}

func oracleTabLayout(inst *Instance, env RenderEnv, w io.Writer) error {
	tabs := inst.Def.Config.Get("tabs")
	fmt.Fprintf(w, `<div class="widget tabs" data-widget=%q>`, inst.Def.Name)
	if tabs != nil && tabs.Kind == flowfile.ListNode {
		for _, tabNode := range tabs.Items {
			name := tabNode.Str("name")
			body := tabNode.Str("body")
			fmt.Fprintf(w, `<section class="tab" data-tab=%q>`, esc(name))
			if body != "" {
				ref, err := flowfile.ParseRef(body)
				if err != nil {
					return fmt.Errorf("widget W.%s: tab %q: %w", inst.Def.Name, name, err)
				}
				if err := oracleRenderChild(env, ref.Name, w); err != nil {
					return err
				}
			}
			fmt.Fprint(w, "</section>")
		}
	}
	_, err := fmt.Fprint(w, "</div>")
	return err
}

func oracleRenderChild(env RenderEnv, name string, w io.Writer) error {
	child, ok := env.Widget(name)
	if !ok {
		return fmt.Errorf("layout references unknown widget W.%s", name)
	}
	return oracleRenderer(child.Desc.Type)(child, env, w)
}

// oracleFlow configures every built-in type over one table d(label,
// size, serie, point, color, num), some of them twice: bound to strings
// and to numbers, with and without optional attributes.
const oracleFlow = `
W:
  bubble:
    type: BubbleChart
    source: D.d
    text: label
    size: size
    legend_text: serie
  bubble_num:
    type: BubbleChart
    source: D.d
    text: num
    size: num
  line:
    type: LineChart
    source: D.d
    x: label
    y: size
    serie: serie
  line_all:
    type: LineChart
    source: D.d
    x: label
    y: num
  bar:
    type: BarChart
    source: D.d
    x: label
    y: size
  bar_num:
    type: BarChart
    source: D.d
    x: num
    y: num
  pie:
    type: Pie
    source: D.d
    text: label
    size: size
  cloud:
    type: WordCloud
    source: D.d
    text: label
    size: size
    show_tooltip: true
  cloud_num:
    type: WordCloud
    source: D.d
    text: num
    size: size
  stream:
    type: Streamgraph
    source: D.d
    x: label
    y: size
    serie: serie
    color: color
  slider:
    type: Slider
    source: D.d
    slider_type: 'd<a>te'
  static_slider:
    type: Slider
    source: ['<lo>', 'mid', 'h"i']
    static: true
    range: true
  list:
    type: List
    source: D.d
    text: label
  list_num:
    type: List
    source: D.d
    text: num
  map:
    type: MapMarker
    source: D.d
    country: 'I&D'
    markers:
      - marker1:
          type: circle_marker
          latlong_value: point
          markersize: size
          fill_color: color
      - marker2:
          type: circle_marker
          latlong_value: label
          markersize: num
  html:
    type: HTML
    source: D.d
    tag: article
  html_default:
    type: HTML
    source: D.d
  grid:
    type: Grid
    source: D.d
  panel:
    type: Layout
    rows:
      - [span6: W.list, span6: W.grid]
      - [span12: W.tabs]
  tabs:
    type: TabLayout
    tabs:
      - name: '<First> & "only"'
        body: W.bar
      - name: 'Empty'
`

// oracleInstances compiles oracleFlow.
func oracleInstances(t testing.TB) (map[string]*Instance, []string) {
	f, err := flowfile.Parse("oracle", oracleFlow)
	if err != nil {
		t.Fatal(err)
	}
	insts := map[string]*Instance{}
	for _, name := range f.WidgetOrder {
		if insts[name], err = NewInstance(f.Widgets[name]); err != nil {
			t.Fatal(err)
		}
	}
	return insts, f.WidgetOrder
}

// oracleTable builds d: one row per label, the other cells drawn from
// sizes, series and points in turn. labels must hold only strings and
// nulls, which LineChart and Streamgraph order alike in both renderers.
func oracleTable(labels []value.V, sizes []value.V, n int64) *table.Table {
	tb := table.New(schema.MustFromNames("label", "size", "serie", "point", "color", "num"))
	series := []value.V{value.NewString("a"), value.NewString(`<b>&'`), value.VNull, value.NewString(" ")}
	points := []string{"19.07,72.87", "12.9,77.6", "bad", "1,2,3", "28.6,<77.2>"}
	for i, l := range labels {
		color := value.NewString([]string{"#004ba0", "", `"red"`}[i%3])
		if i%4 == 3 {
			color = value.VNull
		}
		tb.AppendValues(l, sizes[i%len(sizes)], series[i%len(series)], value.NewString(points[i%len(points)]), color, value.NewInt(n-int64(i)))
	}
	return tb
}

// layouts returns src row-backed, column-backed through a Builder
// (dictionary-coded strings; mixed columns boxed) and, when every column
// is kind-uniform, column-backed in plain vectors.
func layouts(src *table.Table) map[string]*table.Table {
	b := colstore.NewBuilder(src.Schema())
	for _, r := range src.Rows() {
		b.Append(r)
	}
	out := map[string]*table.Table{"row-backed": src, "built": b.Table()}
	if plain, ok := colstore.FromTable(src); ok {
		out["plain"] = plain.ToTable()
	}
	return out
}

// sameRender renders every instance through the renderers and through
// their oracles, into a pooled-style buffer with a prefix, an empty
// buffer and a plain writer, and requires the same bytes each time.
func sameRender(t *testing.T, insts map[string]*Instance, order []string, label string) {
	t.Helper()
	env := soloEnv{inst: insts}
	for _, name := range order {
		inst := insts[name]
		var want bytes.Buffer
		wantErr := oracleRenderer(inst.Desc.Type)(inst, env, &want)
		pooled := bytes.NewBuffer(make([]byte, 0, 1<<16))
		pooled.WriteString("prefix")
		var empty bytes.Buffer
		var plain strings.Builder
		for wname, w := range map[string]io.Writer{"pooled": pooled, "empty": &empty, "plain": &plain} {
			err := inst.Render(env, w)
			var got string
			switch w := w.(type) {
			case *bytes.Buffer:
				got = strings.TrimPrefix(w.String(), "prefix")
			case *strings.Builder:
				got = w.String()
			}
			if got != want.String() || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: W.%s (%s) into the %s writer:\n%s %v\noracle:\n%s %v", label, name, inst.Desc.Type, wname, got, err, want.String(), wantErr)
			}
		}
	}
}

// renderAll binds tb to every data widget and holds all of them to the
// oracle with no selection, a discrete and a range selection.
func renderAll(t *testing.T, tb *table.Table, sel []string) {
	t.Helper()
	for lname, lt := range layouts(tb) {
		insts, order := oracleInstances(t)
		for _, inst := range insts {
			if inst.Def.Source != nil {
				inst.Data = lt
			}
		}
		sameRender(t, insts, order, lname+", no selection")
		for _, inst := range insts {
			inst.Select(sel...)
		}
		sameRender(t, insts, order, lname+", discrete selection")
		if len(sel) >= 2 {
			for _, inst := range insts {
				inst.SelectRange(sel[0], sel[1])
			}
			sameRender(t, insts, order, lname+", range selection")
		}
	}
}

// TestRenderMatchesOracle runs every built-in type through both
// renderers: HTML and quoting characters, U+2028, invalid UTF-8 and
// backslashes in labels, column names and configuration; NaN, ±Inf,
// null, negative and numeric-string sizes; unbound columns; nil and
// empty data; discrete and range selections; row- and column-backed
// tables.
func TestRenderMatchesOracle(t *testing.T) {
	labels := []value.V{value.NewString(`<a href='x'>&amp;</a>`), value.NewString("\"q\" \\   "), value.NewString("bad \xff\xfe\xc3"),
		value.VNull, value.NewString("é漢\U0001f600"), value.NewString("tab\tnl\n\x00\x7f"), value.NewString(""), value.NewString("3"),
		value.NewString("19.5,73.2")}
	sizes := []value.V{value.NewFloat(math.NaN()), value.NewInt(3), value.NewFloat(math.Inf(1)), value.VNull, value.NewFloat(2.5),
		value.NewFloat(math.Inf(-1)), value.NewInt(-4), value.NewString(" 7.5"), value.NewFloat(1e21), value.NewFloat(math.Copysign(0, -1))}
	t.Run("adversarial", func(t *testing.T) {
		renderAll(t, oracleTable(labels, sizes, 5), []string{`<a href='x'>&amp;</a>`, "3", ""})
	})
	t.Run("uniform", func(t *testing.T) {
		var ls, ss []value.V
		for i := 0; i < 40; i++ {
			ls = append(ls, value.NewString(fmt.Sprintf("p%d", i%13)))
			ss = append(ss, value.NewFloat(float64(i*i)/7))
		}
		renderAll(t, oracleTable(ls, ss, 100), []string{"p3", "p7"})
	})
	t.Run("one row", func(t *testing.T) {
		renderAll(t, oracleTable(labels[:1], sizes[1:2], 0), []string{"x"})
	})
	t.Run("empty", func(t *testing.T) {
		renderAll(t, oracleTable(nil, sizes, 0), nil)
	})
	t.Run("unbound columns", func(t *testing.T) {
		tb := table.New(schema.MustFromNames("other", "<th>"))
		tb.AppendValues(value.NewString("v&"), value.NewInt(1))
		tb.AppendValues(value.VNull, value.NewFloat(2))
		renderAll(t, tb, []string{"v&", ""})
	})
	t.Run("nil data", func(t *testing.T) {
		insts, order := oracleInstances(t)
		sameRender(t, insts, order, "nil data")
	})
}

// FuzzRenderWidgets holds every built-in renderer to its oracle over
// fuzzed text (each line a label, a size parsed from it, and a point),
// a fuzzed float scaling the sizes of odd rows and a fuzzed selection.
func FuzzRenderWidgets(f *testing.F) {
	f.Add("pig\n<hive>\n3\n2.5\n&'\"", 0.1, int64(7), "pig")
	f.Add("\xff\n \n\\\n", math.Inf(1), int64(-1), "\\")
	f.Add("", math.NaN(), int64(0), "")
	f.Add("19.07,72.87\n1,2\nx,y", -2.0, int64(1e18), "1,2")
	f.Fuzz(func(t *testing.T, text string, x float64, n int64, sel string) {
		var labels, sizes []value.V
		for i, line := range strings.SplitN(text, "\n", 32) {
			labels = append(labels, value.NewString(line))
			if i%2 == 1 {
				sizes = append(sizes, value.NewFloat(x*float64(i)))
			} else {
				sizes = append(sizes, value.Parse(line))
			}
		}
		renderAll(t, oracleTable(labels, sizes, n), []string{sel, text})
	})
}
