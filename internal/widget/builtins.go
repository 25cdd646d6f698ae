package widget

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
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
		Render:       func(inst *Instance, _ RenderEnv, w io.Writer) error { return renderXYPaths(inst, w, "line") },
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
		Render:      func(inst *Instance, _ RenderEnv, w io.Writer) error { return renderXYPaths(inst, w, "streamgraph") },
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

// column is the index of the data column bound to widget column attr,
// or -1.
func (inst *Instance) column(attr string) int {
	if inst.Data == nil {
		return -1
	}
	return inst.Data.Schema().Index(inst.DataColumn(attr))
}

// rows is the number of data rows, 0 without data.
func (inst *Instance) rows() int {
	if inst.Data == nil {
		return 0
	}
	return inst.Data.Len()
}

// at reads cell (i, c) of the data, null when c < 0 (as Cell answers).
func (inst *Instance) at(i, c int) value.V {
	if c < 0 {
		return value.VNull
	}
	return inst.Data.At(i, c)
}

// selected reports whether v's display form is a selected value.
func (inst *Instance) selected(v value.V) bool {
	if v.Kind() == value.String {
		return slices.Contains(inst.Selection, v.StrRaw())
	}
	var buf [32]byte
	d := v.AppendTo(buf[:0])
	return slices.ContainsFunc(inst.Selection, func(s string) bool { return s == string(d) })
}

// maxSize is the largest size in column c, or 1 when none is positive.
func (inst *Instance) maxSize(c int) float64 {
	m := 0.0
	for i := 0; i < inst.rows(); i++ {
		if x := inst.at(i, c).Float(); x > m {
			m = x
		}
	}
	return cmp.Or(m, 1)
}

func renderBubble(inst *Instance, env RenderEnv, w io.Writer) error {
	n, lc, sc := inst.rows(), inst.column("text"), inst.column("size")
	maxS := inst.maxSize(sc)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if cols == 0 {
		cols = 1
	}
	cell := 90.0
	m := NewMarkup(w).Raw(`<svg class="widget bubble" data-widget=`).Quote(inst.Def.Name).
		Raw(` viewBox="0 0 `).Float(float64(cols)*cell, 0).Raw(" ").Float(float64((n+cols-1)/cols)*cell, 0).Raw(`">`)
	for i := 0; i < n; i++ {
		label := inst.at(i, lc)
		r := 10 + 30*math.Sqrt(inst.at(i, sc).Float()/maxS)
		cx := (float64(i%cols) + 0.5) * cell
		cy := (float64(i/cols) + 0.5) * cell
		cls := `"bubble-node"`
		if inst.selected(label) {
			cls = `"bubble-node selected"`
		}
		m = m.Raw(`<circle class=`).Raw(cls).Raw(` cx="`).Float(cx, 1).Raw(`" cy="`).Float(cy, 1).Raw(`" r="`).Float(r, 1).
			Raw(`" data-key=`).QuoteCell(label).Raw(`/><text x="`).Float(cx, 1).Raw(`" y="`).Float(cy, 1).
			Raw(`" text-anchor="middle">`).Cell(label).Raw("</text>")
	}
	return m.Raw("</svg>").Flush(w)
}

// renderXYPaths draws one polyline (or stacked band) per serie. The x
// axis places each distinct x display form once, ordered by
// value.Compare of the first cell seen with it, so 9 comes before 10.
func renderXYPaths(inst *Instance, w io.Writer, kind string) error {
	m := NewMarkup(w).Raw(`<svg class="widget `).Raw(kind).Raw(`" data-widget=`).Quote(inst.Def.Name)
	if inst.Data == nil {
		return m.Raw("></svg>").Flush(w)
	}
	xc, yc, sc := inst.column("x"), inst.column("y"), inst.column("serie")
	bySerie := inst.DataColumn("serie") != ""
	type pt struct {
		x int // index into xs
		y float64
	}
	series := map[string][]pt{}
	var serieOrder []string
	ids := map[string]int{}
	var xs []value.V
	var order []int // ids, in axis order once sorted
	var key []byte
	maxY := 1.0
	for i := 0; i < inst.Data.Len(); i++ {
		s := "all"
		if bySerie {
			s = inst.at(i, sc).String()
		}
		if _, ok := series[s]; !ok {
			serieOrder = append(serieOrder, s)
		}
		x := inst.at(i, xc)
		key = x.AppendTo(key[:0])
		id, ok := ids[string(key)]
		if !ok {
			id = len(xs)
			ids[string(key)] = id
			xs, order = append(xs, x), append(order, id)
		}
		y := inst.at(i, yc).Float()
		if y > maxY {
			maxY = y
		}
		series[s] = append(series[s], pt{x: id, y: y})
	}
	slices.SortStableFunc(order, func(a, b int) int { return value.Compare(xs[a], xs[b]) })
	width, height := 600.0, 200.0
	xpos := make([]float64, len(xs))
	for r, id := range order {
		xpos[id] = width / 2
		if len(xs) > 1 {
			xpos[id] = width * float64(r) / float64(len(xs)-1)
		}
	}
	m = m.Raw(` viewBox="0 0 600 200">`)
	for _, s := range serieOrder {
		pts := series[s]
		sort.Slice(pts, func(a, b int) bool { return xpos[pts[a].x] < xpos[pts[b].x] })
		m = m.Raw(`<path class="serie" data-serie=`).QuoteEsc(s).Raw(` d="`)
		sep := "M"
		for _, p := range pts {
			m, sep = m.Raw(sep).Float(xpos[p.x], 1).Raw(" ").Float(height-(p.y/maxY)*height*0.9, 1), " L"
		}
		m = m.Raw(`" fill="none"/>`)
	}
	return m.Raw("</svg>").Flush(w)
}

func renderBar(inst *Instance, env RenderEnv, w io.Writer) error {
	n, xc, yc := inst.rows(), inst.column("x"), inst.column("y")
	maxS := inst.maxSize(yc)
	bw, height := 40.0, 200.0
	m := NewMarkup(w).Raw(`<svg class="widget bar" data-widget=`).Quote(inst.Def.Name).
		Raw(` viewBox="0 0 `).Float(bw*float64(n), 0).Raw(` 200">`)
	for i := 0; i < n; i++ {
		h := (inst.at(i, yc).Float() / maxS) * height * 0.9
		m = m.Raw(`<rect x="`).Float(float64(i)*bw+4, 1).Raw(`" y="`).Float(height-h, 1).
			Raw(`" width="32.0" height="`).Float(h, 1).Raw(`" data-key=`).QuoteCell(inst.at(i, xc)).Raw("/>")
	}
	return m.Raw("</svg>").Flush(w)
}

func renderPie(inst *Instance, env RenderEnv, w io.Writer) error {
	n, tc, sc := inst.rows(), inst.column("text"), inst.column("size")
	total := 0.0
	for i := 0; i < n; i++ {
		total += inst.at(i, sc).Float()
	}
	total = cmp.Or(total, 1)
	m := NewMarkup(w).Raw(`<svg class="widget pie" data-widget=`).Quote(inst.Def.Name).Raw(` viewBox="-1.1 -1.1 2.2 2.2">`)
	angle := -math.Pi / 2
	for i := 0; i < n; i++ {
		frac := inst.at(i, sc).Float() / total
		a2 := angle + frac*2*math.Pi
		large := " 0 1 "
		if frac > 0.5 {
			large = " 1 1 "
		}
		m = m.Raw(`<path data-key=`).QuoteCell(inst.at(i, tc)).Raw(` d="M0 0 L`).Float(math.Cos(angle), 4).Raw(" ").Float(math.Sin(angle), 4).
			Raw(" A1 1 0").Raw(large).Float(math.Cos(a2), 4).Raw(" ").Float(math.Sin(a2), 4).Raw(` Z"/>`)
		angle = a2
	}
	return m.Raw("</svg>").Flush(w)
}

func renderWordCloud(inst *Instance, env RenderEnv, w io.Writer) error {
	n, tc, sc := inst.rows(), inst.column("text"), inst.column("size")
	maxS := inst.maxSize(sc)
	tooltip := inst.Def.Config.Bool("show_tooltip")
	m := NewMarkup(w).Raw(`<div class="widget wordcloud" data-widget=`).Quote(inst.Def.Name).Raw(">")
	for i := 0; i < n; i++ {
		label, size := inst.at(i, tc), inst.at(i, sc).Float()
		m = m.Raw(`<span style="font-size:`).Float(10+22*size/maxS, 0).Raw(`px" data-key=`).QuoteCell(label)
		if tooltip {
			m = m.Raw(` title="`).Cell(label).Raw(": ").Cell(value.NewFloat(size)).Raw(`"`)
		}
		m = m.Raw(">").Cell(label).Raw("</span> ")
	}
	return m.Raw("</div>").Flush(w)
}

func renderSlider(inst *Instance, env RenderEnv, w io.Writer) error {
	lo, hi := "", ""
	if vals := inst.Def.Static; len(vals) >= 2 {
		lo, hi = vals[0], vals[len(vals)-1]
	} else if len(vals) == 0 && inst.rows() > 0 {
		lo, hi = inst.Data.At(0, 0).String(), inst.Data.At(inst.rows()-1, 0).String()
	}
	selLo, selHi := lo, hi
	if inst.RangeSel && len(inst.Selection) >= 2 {
		selLo, selHi = inst.Selection[0], inst.Selection[1]
	}
	return NewMarkup(w).Raw(`<div class="widget slider `).Esc(inst.Def.Attr("slider_type")).Raw(`" data-widget=`).Quote(inst.Def.Name).
		Raw(" data-min=").QuoteEsc(lo).Raw(" data-max=").QuoteEsc(hi).
		Raw(" data-lo=").QuoteEsc(selLo).Raw(" data-hi=").QuoteEsc(selHi).Raw("></div>").Flush(w)
}

func renderList(inst *Instance, env RenderEnv, w io.Writer) error {
	m := NewMarkup(w).Raw(`<ul class="widget list" data-widget=`).Quote(inst.Def.Name).Raw(">")
	tc := inst.column("text")
	for i := 0; i < inst.rows(); i++ {
		label := inst.at(i, tc)
		m = m.Raw("<li")
		if inst.selected(label) {
			m = m.Raw(` class="selected"`)
		}
		m = m.Raw(" data-key=").QuoteCell(label).Raw(">").Cell(label).Raw("</li>")
	}
	return m.Raw("</ul>").Flush(w)
}

func renderMapMarker(inst *Instance, env RenderEnv, w io.Writer) error {
	m := NewMarkup(w).Raw(`<svg class="widget map" data-widget=`).Quote(inst.Def.Name).
		Raw(" data-country=").QuoteEsc(inst.Def.Attr("country")).Raw(` viewBox="0 0 400 400">`)
	markers := inst.Def.Config.Get("markers")
	if inst.Data != nil && markers != nil && markers.Kind == flowfile.ListNode {
		col := inst.Data.Schema().Index
		for _, mk := range markers.Items {
			cfg := markerConfig(mk)
			lc, sc, cc := col(cfg.Str("latlong_value")), col(cfg.Str("markersize")), col(cfg.Str("fill_color"))
			var maxSize float64 = 1
			for i := 0; i < inst.Data.Len(); i++ {
				if s := inst.at(i, sc).Float(); s > maxSize {
					maxSize = s
				}
			}
			for i := 0; i < inst.Data.Len(); i++ {
				lat, lon, ok := parseLatLong(inst.at(i, lc).String())
				if !ok {
					continue
				}
				// Project India's bounding box (roughly 6..36N, 68..98E)
				// into the viewport; other countries scale similarly.
				x := (lon - 68) / 30 * 400
				y := 400 - (lat-6)/30*400
				r := 3 + 12*math.Sqrt(inst.at(i, sc).Float()/maxSize)
				color := inst.at(i, cc).String()
				if color == "" {
					color = "#888"
				}
				m = m.Raw(`<circle cx="`).Float(x, 1).Raw(`" cy="`).Float(y, 1).Raw(`" r="`).Float(r, 1).Raw(`" fill=`).QuoteEsc(color).Raw("/>")
			}
		}
	}
	return m.Raw("</svg>").Flush(w)
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
	a, b, ok := strings.Cut(s, ",")
	if !ok || strings.Contains(b, ",") {
		return 0, 0, false
	}
	return value.Parse(a).Float(), value.Parse(b).Float(), true
}

func renderHTML(inst *Instance, env RenderEnv, w io.Writer) error {
	tag := inst.Def.Attr("tag")
	if tag == "" {
		tag = "section"
	}
	m := NewMarkup(w).Raw("<").Raw(tag).Raw(` class="widget html" data-widget=`).Quote(inst.Def.Name).Raw(">")
	if inst.rows() > 0 {
		m = m.Raw("<dl>")
		for c, s := 0, inst.Data.Schema(); c < s.Len(); c++ {
			m = m.Raw("<dt>").Esc(s.Col(c).Name).Raw("</dt><dd>").Cell(inst.Data.At(0, c)).Raw("</dd>")
		}
		m = m.Raw("</dl>")
	}
	return m.Raw("</").Raw(tag).Raw(">").Flush(w)
}

func renderGrid(inst *Instance, env RenderEnv, w io.Writer) error {
	m := NewMarkup(w).Raw(`<table class="widget grid" data-widget=`).Quote(inst.Def.Name).Raw(">")
	if inst.Data != nil {
		m = m.Table(inst.Data)
	}
	return m.Raw("</table>").Flush(w)
}

// renderSubLayout renders a widget of type Layout: a nested grid of
// sibling widgets (the sub-layouts of Appendix A.2).
func renderSubLayout(inst *Instance, env RenderEnv, w io.Writer) error {
	rowsNode := inst.Def.Config.Get("rows")
	m := NewMarkup(w).Raw(`<div class="widget layout" data-widget=`).Quote(inst.Def.Name).Raw(">")
	if rowsNode != nil && rowsNode.Kind == flowfile.ListNode {
		for _, rn := range rowsNode.Items {
			row, err := flowfile.DecodeLayoutRow(rn)
			if err != nil {
				m.Flush(w)
				return err
			}
			m = m.Raw(`<div class="row">`)
			for _, cell := range row.Cells {
				if m, err = renderChild(env, cell.Widget, m.Raw(`<div class="col span`).Int(cell.Span).Raw(`">`), w); err != nil {
					return err
				}
				m = m.Raw("</div>")
			}
			m = m.Raw("</div>")
		}
	}
	return m.Raw("</div>").Flush(w)
}

func renderTabLayout(inst *Instance, env RenderEnv, w io.Writer) error {
	tabs := inst.Def.Config.Get("tabs")
	m := NewMarkup(w).Raw(`<div class="widget tabs" data-widget=`).Quote(inst.Def.Name).Raw(">")
	if tabs != nil && tabs.Kind == flowfile.ListNode {
		for _, tabNode := range tabs.Items {
			name, body := tabNode.Str("name"), tabNode.Str("body")
			m = m.Raw(`<section class="tab" data-tab=`).QuoteEsc(name).Raw(">")
			if body != "" {
				ref, err := flowfile.ParseRef(body)
				if err != nil {
					m.Flush(w)
					return fmt.Errorf("widget W.%s: tab %q: %w", inst.Def.Name, name, err)
				}
				if m, err = renderChild(env, ref.Name, m, w); err != nil {
					return err
				}
			}
			m = m.Raw("</section>")
		}
	}
	return m.Raw("</div>").Flush(w)
}

// renderChild writes m, then the named sibling widget, and returns the
// Markup for what follows.
func renderChild(env RenderEnv, name string, m Markup, w io.Writer) (Markup, error) {
	m.Flush(w)
	child, ok := env.Widget(name)
	if !ok {
		return nil, fmt.Errorf("layout references unknown widget W.%s", name)
	}
	if err := child.Desc.Render(child, env, w); err != nil {
		return nil, err
	}
	return NewMarkup(w), nil
}

// Render writes the instance's HTML.
func (inst *Instance) Render(env RenderEnv, w io.Writer) error {
	return inst.Desc.Render(inst, env, w)
}
