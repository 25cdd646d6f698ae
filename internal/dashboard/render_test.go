package dashboard

import (
	"bytes"
	"fmt"
	"html"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/table"
	"shareinsights/internal/widget"
)

// bigWidgetFlow produces a word cloud with > DegradeRows rows.
const bigWidgetFlow = `
D:
  words: [word, n]

D.words:
  source: mem:words.csv
  format: csv

W:
  cloud:
    type: WordCloud
    source: D.words
    text: word
    size: n

L:
  description: Big Cloud
  rows:
    - [span6: W.cloud]
`

func bigWordsDashboard(t *testing.T) *Dashboard {
	t.Helper()
	var csv strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&csv, "word%03d,%d\n", i, i)
	}
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"words.csv": []byte(csv.String())},
	})
	f, err := flowfile.Parse("big", bigWidgetFlow)
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
	return d
}

func TestRenderForDesktopKeepsChart(t *testing.T) {
	d := bigWordsDashboard(t)
	var b strings.Builder
	if err := d.RenderHTMLFor(Desktop, &b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	if !strings.Contains(page, `class="col span6"`) {
		t.Error("desktop render lost the configured span")
	}
	if !strings.Contains(page, "wordcloud") || strings.Contains(page, "degraded") {
		t.Error("desktop render should keep the full chart")
	}
}

func TestRenderForMobileStacksAndDegrades(t *testing.T) {
	d := bigWordsDashboard(t)
	var b strings.Builder
	if err := d.RenderHTMLFor(Mobile, &b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	if !strings.Contains(page, `class="col span12"`) {
		t.Error("mobile render should stack cells to span12")
	}
	if !strings.Contains(page, `class="widget degraded"`) {
		t.Error("low-power render should degrade the big chart")
	}
	if !strings.Contains(page, "20 of 500 rows shown") {
		t.Errorf("degraded table should show the top rows notice")
	}
	// Degradation ranks by the size column: the strongest word leads.
	if !strings.Contains(page, "word499") {
		t.Error("degraded table missing the top-weighted row")
	}
	if strings.Contains(page, "word005,") {
		t.Error("degraded table should not include weak rows")
	}
}

func TestSmallChartNotDegraded(t *testing.T) {
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"words.csv": []byte("a,1\nb,2\n")},
	})
	f, err := flowfile.Parse("small", bigWidgetFlow)
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
	var b strings.Builder
	if err := d.RenderHTMLFor(Mobile, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "degraded") {
		t.Error("small charts should render normally on low-power devices")
	}
}

// hotDashboard runs hotFlow over n generated sales rows.
func hotDashboard(t *testing.T, n int) *Dashboard {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var csv []byte
	for i := 0; i < n; i++ {
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
	return d
}

// TestRenderAllocs bounds what rendering the viewer's page allocates on
// hotFlow over 2,000 rows after a selection: every widget appends into
// the pooled page buffer, so a render costs a handful of objects, not
// one per cell.
func TestRenderAllocs(t *testing.T) {
	d := hotDashboard(t, 2000)
	if err := d.Select("picker", "r3"); err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if err := d.RenderHTML(&page); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.String(), `<li class="selected" data-key="r3">r3</li>`) || strings.Count(page.String(), "<rect") < 20 {
		t.Fatalf("page does not show the selection and its chart:\n%s", page.String())
	}
	allocs := testing.AllocsPerRun(100, func() {
		page.Reset()
		if err := d.RenderHTML(&page); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("a render allocates %.0f objects, want at most 20", allocs)
	}
}

// oracleRenderDegraded is renderDegraded as it was before it ranked
// indices: a copy of the data's rows, sorted in place.
func oracleRenderDegraded(inst *widget.Instance, w io.Writer) error {
	data := inst.Data
	sizeCol := inst.DataColumn("size")
	if sizeCol == "" {
		sizeCol = inst.DataColumn("y")
	}
	if sizeCol != "" && data.Schema().Has(sizeCol) {
		rows := slices.Clone(data.Rows())
		sortDesc(rows, data.Schema().Index(sizeCol))
		data, _ = table.FromRows(data.Schema(), rows)
	}
	top, _ := table.FromRows(data.Schema(), data.Rows()[:min(20, data.Len())])
	fmt.Fprintf(w, `<div class="widget degraded" data-widget=%q data-full-rows="%d"><table>`,
		inst.Def.Name, inst.Data.Len())
	fmt.Fprint(w, "<thead><tr>")
	for _, col := range top.Schema().Names() {
		fmt.Fprintf(w, "<th>%s</th>", html.EscapeString(col))
	}
	fmt.Fprint(w, "</tr></thead><tbody>")
	for i := 0; i < top.Len(); i++ {
		fmt.Fprint(w, "<tr>")
		for c := 0; c < top.Schema().Len(); c++ {
			fmt.Fprintf(w, "<td>%s</td>", html.EscapeString(top.At(i, c).String()))
		}
		fmt.Fprint(w, "</tr>")
	}
	_, err := fmt.Fprintf(w, "</tbody></table><p>%d of %d rows shown</p></div>", top.Len(), inst.Data.Len())
	return err
}

const pointsFlow = `
D:
  points: [day, n, note]

D.points:
  source: mem:points.csv
  format: csv

W:
  trend:
    type: LineChart
    source: D.points
    x: day
    y: n

L:
  rows:
    - [span6: W.trend]
`

// TestDegradedRanksWithoutCopying renders a 600-row column-backed
// LineChart for a mobile client: the degraded table equals the one the
// copying, row-sorting renderer wrote (ties in y keep row order), and
// ranking reads cells in place instead of materializing the rows.
func TestDegradedRanksWithoutCopying(t *testing.T) {
	var csv strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&csv, "%d,%d,<n%d & '%d'>\n", i, (i*37)%101, i, i%7)
	}
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{"points.csv": []byte(csv.String())}})
	f, err := flowfile.Parse("points", pointsFlow)
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
	inst := d.widgets["trend"]
	if inst.Data.Columns() == nil {
		t.Fatal("the endpoint should be column-backed")
	}
	var got bytes.Buffer
	got.Grow(16 << 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := renderDegraded(inst, &got); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Materializing the rows alone takes 600 rows x 3 cells x 32 bytes.
	if b := after.TotalAlloc - before.TotalAlloc; b > 24<<10 {
		t.Errorf("the degraded render allocated %d bytes: the rows were copied or materialized", b)
	}
	var want strings.Builder
	if err := oracleRenderDegraded(inst, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("degraded table:\n%s\nwant:\n%s", got.String(), want.String())
	}
	var page strings.Builder
	if err := d.RenderHTMLFor(Mobile, &page); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.String(), `<div class="col span12">`+want.String()+`</div>`) {
		t.Errorf("mobile page does not hold the degraded table:\n%s", page.String())
	}
}
