package dashboard

import (
	"fmt"
	"html"
	"io"
	"strings"

	"shareinsights/internal/table"
	"shareinsights/internal/widget"
)

// Device describes the client's operating environment — the constraints
// §4.1 says the generated output must be cognizant of: "Screen
// Resolution: at one end of the spectrum, mobile devices have limited
// screen space … Client Computing Resources: it is not guaranteed that
// the user will have a powerful device … These constraints influence
// what analysis can be displayed meaningfully and the platform needs to
// choose the appropriate representation."
type Device struct {
	// Width is the viewport width in CSS pixels. Below 600 the layout
	// stacks: every cell spans the full twelve columns.
	Width int
	// LowPower marks clients that cannot render heavy visualizations;
	// charts over more than DegradeRows rows degrade to a compact table
	// of their strongest rows.
	LowPower bool
}

// DegradeRows is the chart-size threshold for low-power degradation.
const DegradeRows = 200

// Preset devices.
var (
	Desktop = Device{Width: 1280}
	Mobile  = Device{Width: 390, LowPower: true}
)

// RenderHTML writes the dashboard as a single self-contained HTML page —
// the server-side counterpart of the paper's generated single-page
// application (§4.4). The L section drives the twelve-column grid; each
// cell renders its widget with its current data and selection.
func (d *Dashboard) RenderHTML(w io.Writer) error {
	return d.RenderHTMLFor(Desktop, w)
}

// RenderHTMLFor renders the dashboard for a specific client environment.
func (d *Dashboard) RenderHTMLFor(dev Device, w io.Writer) error {
	return d.RenderHTMLStyled(dev, "", w)
}

// RenderHTMLStyled is RenderHTMLFor with a custom CSS sheet appended to
// the base styling — the Styling extension point of §4.2: "Stylesheet
// authors can use widget names specified in the flow file as style
// targets", via the [data-widget="<name>"] attribute every rendered
// widget carries. The sheet is an argument, not dashboard state: one
// compiled dashboard serves concurrent renders.
func (d *Dashboard) RenderHTMLStyled(dev Device, css string, w io.Writer) error {
	title := d.Name
	if d.File.Layout != nil && d.File.Layout.Description != "" {
		title = d.File.Layout.Description
	}
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><meta charset="utf-8"><title>%s</title><style>%s</style></head><body>`,
		html.EscapeString(title), baseCSS+css)
	fmt.Fprintf(w, `<h1>%s</h1>`, html.EscapeString(title))
	if d.File.Layout != nil {
		for _, row := range d.File.Layout.Rows {
			fmt.Fprint(w, `<div class="row">`)
			for _, cell := range row.Cells {
				span := cell.Span
				if dev.Width > 0 && dev.Width < 600 {
					span = 12 // small screens stack the grid
				}
				fmt.Fprintf(w, `<div class="col span%d">`, span)
				inst, ok := d.widgets[cell.Widget]
				if !ok {
					return fmt.Errorf("dashboard %s: layout references unknown widget W.%s", d.Name, cell.Widget)
				}
				if dev.LowPower && degradable(inst) {
					if err := renderDegraded(inst, w); err != nil {
						return err
					}
				} else if err := inst.Render(d, w); err != nil {
					return err
				}
				fmt.Fprint(w, `</div>`)
			}
			fmt.Fprint(w, `</div>`)
		}
	}
	_, err := fmt.Fprint(w, `</body></html>`)
	return err
}

// degradable reports whether a widget should fall back to a compact
// table on a low-power client: heavyweight chart types over large data.
func degradable(inst *widget.Instance) bool {
	if inst.Data == nil || inst.Data.Len() <= DegradeRows {
		return false
	}
	switch inst.Def.Type {
	case "BubbleChart", "Streamgraph", "MapMarker", "WordCloud", "LineChart":
		return true
	default:
		return false
	}
}

// renderDegraded emits the low-power representation: the widget's
// strongest rows (by its size/y attribute when bound) as a small table.
func renderDegraded(inst *widget.Instance, w io.Writer) error {
	data := inst.Data
	sizeCol := inst.DataColumn("size")
	if sizeCol == "" {
		sizeCol = inst.DataColumn("y")
	}
	if sizeCol != "" && data.Schema().Has(sizeCol) {
		sorted := data.Clone()
		if err := sorted.Sort(table.SortKey{Column: sizeCol, Desc: true}); err == nil {
			data = sorted
		}
	}
	top := data.Head(20)
	fmt.Fprintf(w, `<div class="widget degraded" data-widget=%q data-full-rows="%d"><table>`,
		inst.Def.Name, inst.Data.Len())
	fmt.Fprint(w, "<thead><tr>")
	for _, col := range top.Schema().Names() {
		fmt.Fprintf(w, "<th>%s</th>", html.EscapeString(col))
	}
	fmt.Fprint(w, "</tr></thead><tbody>")
	for i := 0; i < top.Len(); i++ {
		fmt.Fprint(w, "<tr>")
		for _, v := range top.Row(i) {
			fmt.Fprintf(w, "<td>%s</td>", html.EscapeString(v.String()))
		}
		fmt.Fprint(w, "</tr>")
	}
	_, err := fmt.Fprintf(w, "</tbody></table><p>%d of %d rows shown</p></div>", top.Len(), inst.Data.Len())
	return err
}

// WriteEndpoints prints every endpoint table under an "== name ==" line
// — the data explorer's headless mode (Figure 29), shared by the REST
// text routes and the CLI. prefix precedes each name, counts adds the
// row count to the header, and limit caps the rows printed (0 = all).
func (d *Dashboard) WriteEndpoints(w io.Writer, prefix string, counts bool, limit int) {
	for _, name := range d.EndpointNames() {
		t, ok := d.Endpoint(name)
		if !ok {
			continue
		}
		head := prefix + name
		if counts {
			head += fmt.Sprintf(" (%d rows)", t.Len())
		}
		fmt.Fprintf(w, "== %s ==\n%s\n", head, t.Format(limit))
	}
}

// RenderText writes a textual summary of the dashboard: the layout tree
// and every widget's current data — the data explorer's "headless mode"
// (§4.4) for terminals and tests.
func (d *Dashboard) RenderText(w io.Writer) error {
	if d.File.Layout != nil && d.File.Layout.Description != "" {
		fmt.Fprintf(w, "== %s ==\n", d.File.Layout.Description)
	} else {
		fmt.Fprintf(w, "== %s ==\n", d.Name)
	}
	for _, name := range d.File.WidgetOrder {
		inst := d.widgets[name]
		fmt.Fprintf(w, "\n[%s] W.%s", inst.Def.Type, name)
		if len(inst.Selection) > 0 {
			fmt.Fprintf(w, "  (selection: %s)", strings.Join(inst.Selection, ", "))
		}
		fmt.Fprintln(w)
		if inst.Data != nil {
			fmt.Fprint(w, inst.Data.Format(10))
		}
	}
	return nil
}

// baseCSS is the default dashboard styling; flow-file authors override
// it through the Styling extension point (§4.2) by appending their own
// sheet, targeting widgets by their flow-file names via [data-widget].
var baseCSS = `
body{font-family:sans-serif;margin:16px}
.row{display:flex;gap:8px;margin-bottom:8px}
.col{flex-grow:0;flex-shrink:0}
` + spanCSS + `
.widget{border:1px solid #ddd;border-radius:4px;padding:4px;width:100%}
.bubble-node{fill:#69c}
.bubble-node.selected{fill:#e67}
svg text{font-size:9px}
.wordcloud span{margin-right:6px}
.list li.selected{font-weight:bold}
`

// spanCSS generates the twelve-column widths.
var spanCSS = func() string {
	var b strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&b, ".span%d{width:%.4f%%}\n", i, float64(i)/12*100)
	}
	return b.String()
}()
