package widget

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/value"
)

// The platform widget library. Each registration mirrors a widget the
// paper's dashboards use (Figures 3, 12, 17 and Appendix A.2).
func init() {
	registerBuiltin(&Descriptor{
		Type:         "BubbleChart",
		DataAttrs:    []Attr{{Name: "text", Required: true}, {Name: "size", Required: true}, {Name: "legend_text"}},
		SelectionKey: "text",
		NeedsSource:  true,
		Render:       renderBubble,
	})
	registerBuiltin(&Descriptor{
		Type:         "LineChart",
		DataAttrs:    []Attr{{Name: "x", Required: true}, {Name: "y", Required: true}, {Name: "serie"}},
		SelectionKey: "x",
		NeedsSource:  true,
		Render:       renderLine,
	})
	registerBuiltin(&Descriptor{
		Type:         "BarChart",
		DataAttrs:    []Attr{{Name: "x", Required: true}, {Name: "y", Required: true}},
		SelectionKey: "x",
		NeedsSource:  true,
		Render:       renderBar,
	})
	registerBuiltin(&Descriptor{
		Type:         "Pie",
		DataAttrs:    []Attr{{Name: "text", Required: true}, {Name: "size", Required: true}},
		SelectionKey: "text",
		NeedsSource:  true,
		Render:       renderPie,
	})
	registerBuiltin(&Descriptor{
		Type:         "WordCloud",
		DataAttrs:    []Attr{{Name: "text", Required: true}, {Name: "size", Required: true}},
		SelectionKey: "text",
		NeedsSource:  true,
		Render:       renderWordCloud,
	})
	registerBuiltin(&Descriptor{
		Type:        "Streamgraph",
		DataAttrs:   []Attr{{Name: "x", Required: true}, {Name: "y", Required: true}, {Name: "serie", Required: true}, {Name: "color"}},
		NeedsSource: true,
		Render:      renderStreamgraph,
	})
	registerBuiltin(&Descriptor{
		Type:         "Slider",
		DataAttrs:    nil,
		SelectionKey: "value",
		NeedsSource:  true,
		Render:       renderSlider,
	})
	registerBuiltin(&Descriptor{
		Type:         "List",
		DataAttrs:    []Attr{{Name: "text", Required: true}},
		SelectionKey: "text",
		NeedsSource:  true,
		Render:       renderList,
	})
	registerBuiltin(&Descriptor{
		Type:        "MapMarker",
		DataAttrs:   nil, // marker sub-blocks carry the bindings
		NeedsSource: true,
		Render:      renderMapMarker,
	})
	registerBuiltin(&Descriptor{
		Type:        "HTML",
		DataAttrs:   nil,
		NeedsSource: true,
		Render:      renderHTML,
	})
	registerBuiltin(&Descriptor{
		Type:        "Grid",
		DataAttrs:   nil,
		NeedsSource: true,
		Render:      renderGrid,
	})
	registerBuiltin(&Descriptor{Type: "Layout", Render: renderSubLayout})
	registerBuiltin(&Descriptor{Type: "TabLayout", Render: renderTabLayout})
}

func esc(s string) string { return html.EscapeString(s) }

// rows extracts (label, weight) pairs for label/size widgets.
func labelSizeRows(inst *Instance, labelAttr, sizeAttr string) (labels []string, sizes []float64) {
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

func maxOf(xs []float64) float64 {
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

func renderBubble(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := labelSizeRows(inst, "text", "size")
	maxS := maxOf(sizes)
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

func renderLine(inst *Instance, env RenderEnv, w io.Writer) error {
	return renderXYPaths(inst, w, "line")
}

func renderStreamgraph(inst *Instance, env RenderEnv, w io.Writer) error {
	return renderXYPaths(inst, w, "streamgraph")
}

// renderXYPaths draws one polyline (or stacked band) per serie.
func renderXYPaths(inst *Instance, w io.Writer, kind string) error {
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

func renderBar(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := labelSizeRows(inst, "x", "y")
	maxS := maxOf(sizes)
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

func renderPie(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := labelSizeRows(inst, "text", "size")
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

func renderWordCloud(inst *Instance, env RenderEnv, w io.Writer) error {
	labels, sizes := labelSizeRows(inst, "text", "size")
	maxS := maxOf(sizes)
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

func renderSlider(inst *Instance, env RenderEnv, w io.Writer) error {
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

func renderList(inst *Instance, env RenderEnv, w io.Writer) error {
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

func renderMapMarker(inst *Instance, env RenderEnv, w io.Writer) error {
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
				lat, lon, ok := parseLatLong(inst.Data.Cell(i, latlongCol).String())
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

// markerConfig unwraps the "- marker1: {...}" list-item shape.
func markerConfig(m *flowfile.Node) *flowfile.Node {
	if m.Kind == flowfile.MapNode && len(m.Entries) == 1 && m.Entries[0].Value.Kind == flowfile.MapNode {
		return m.Entries[0].Value
	}
	return m
}

// parseLatLong accepts "lat,long" pairs.
func parseLatLong(s string) (lat, lon float64, ok bool) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, false
	}
	lat = value.Parse(parts[0]).Float()
	lon = value.Parse(parts[1]).Float()
	return lat, lon, true
}

func renderHTML(inst *Instance, env RenderEnv, w io.Writer) error {
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

func renderGrid(inst *Instance, env RenderEnv, w io.Writer) error {
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

// renderSubLayout renders a widget of type Layout: a nested grid of
// sibling widgets (the sub-layouts of Appendix A.2).
func renderSubLayout(inst *Instance, env RenderEnv, w io.Writer) error {
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
				if err := renderChild(env, cell.Widget, w); err != nil {
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

func renderTabLayout(inst *Instance, env RenderEnv, w io.Writer) error {
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
				if err := renderChild(env, ref.Name, w); err != nil {
					return err
				}
			}
			fmt.Fprint(w, "</section>")
		}
	}
	_, err := fmt.Fprint(w, "</div>")
	return err
}

func renderChild(env RenderEnv, name string, w io.Writer) error {
	child, ok := env.Widget(name)
	if !ok {
		return fmt.Errorf("layout references unknown widget W.%s", name)
	}
	return child.Desc.Render(child, env, w)
}

// Render writes the instance's HTML.
func (inst *Instance) Render(env RenderEnv, w io.Writer) error {
	return inst.Desc.Render(inst, env, w)
}
