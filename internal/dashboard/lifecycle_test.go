package dashboard

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// uploadLifecycleFlow reads an uploaded CSV through an inline filter
// into two endpoint group-bys, one of which a widget reads.
const uploadLifecycleFlow = `
D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: FORMAT

F:
  D.big: D.sales | T.keep
  +D.by_region: D.big | T.sum_region
  +D.by_product: D.big | T.sum_product

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  sum_product:
    type: groupby
    groupby: [product]

W:
  regions:
    type: Grid
    source: D.by_region
`

const lifecycleCSV = "east,widget,10\neast,gadget,20\nwest,widget,5\nwest,gizmo,-3\n"

// spyFormat decodes CSV, counting its decodes and showing seen, when
// set, each table it decodes.
type spyFormat struct {
	calls int
	seen  func(*table.Table)
}

func (f *spyFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	t, err := connector.NewRegistry(connector.Options{}).Decode(&flowfile.DataDef{Name: d.Name}, s, payload)
	if f.calls++; f.seen != nil {
		f.seen(t)
	}
	return t, err
}

// compileUpload compiles uploadLifecycleFlow over upload, decoded in the
// named format, and runs it.
func compileUpload(t *testing.T, p *Platform, format, upload string) *Dashboard {
	t.Helper()
	f, err := flowfile.Parse("lifecycle", strings.Replace(uploadLifecycleFlow, "FORMAT", format, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, map[string][]byte{"sales.csv": []byte(upload)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return d
}

func spyPlatform(t *testing.T, spy *spyFormat) *Platform {
	t.Helper()
	p := NewPlatform()
	p.Cache = NewResultCache()
	if err := p.Connectors.RegisterFormat("spy", spy); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReleasedSourceTableMatchesRun: Result.Table decodes a released
// source again from the payload the run used, to the cells the run read.
func TestReleasedSourceTableMatchesRun(t *testing.T) {
	var ran *table.Table
	spy := &spyFormat{}
	spy.seen = func(t *table.Table) { ran, spy.seen = t, nil }
	d := compileUpload(t, spyPlatform(t, spy), "spy", lifecycleCSV)
	if _, held := d.Result().Tables["sales"]; held {
		t.Fatal("the result still holds the decoded source")
	}
	got, ok := d.Result().Table("sales")
	if !ok || !got.Equal(ran) || got == ran {
		t.Fatalf("Result.Table(sales) = %v, want a new decode equal to the run's:\n%s", ok, ran.Format(0))
	}
	if names := d.Result().SortedNames(); !slices.Contains(names, "sales") || !slices.Contains(names, "big") {
		t.Errorf("SortedNames = %v, want the released source and the inline node it feeds", names)
	}
	big, ok := d.Result().Table("big")
	if !ok || big.Len() != 3 {
		t.Errorf("the inline node built from the released source: %v, %d rows, want 3", ok, big.Len())
	}
}

// TestReuploadedBytesHit: a source is keyed by its payload. Uploading
// the same bytes again hits every node the cache holds, and the source
// goes undecoded; changing one byte misses them all.
func TestReuploadedBytesHit(t *testing.T) {
	spy := &spyFormat{}
	p := spyPlatform(t, spy)
	compileUpload(t, p, "spy", lifecycleCSV)
	d := compileUpload(t, p, "spy", strings.Clone(lifecycleCSV))
	if hits := d.Result().Stats.CacheHits; len(hits) != 2 || spy.calls != 1 {
		t.Fatalf("identical re-upload: hits %v after %d decodes, want by_region and by_product after 1", hits, spy.calls)
	}
	d = compileUpload(t, p, "spy", strings.Replace(lifecycleCSV, "10", "11", 1))
	if hits := d.Result().Stats.CacheHits; len(hits) != 0 || spy.calls != 2 {
		t.Fatalf("one byte changed: hits %v after %d decodes, want none after 2", hits, spy.calls)
	}
	if agg, _ := d.Endpoint("by_region"); agg.Rows()[0][1].String() != "31" {
		t.Errorf("the changed upload is not reflected:\n%s", agg.Format(0))
	}
}

// TestDataTextKeysSource: a source's key covers its detail block too, so
// the same bytes decoded another way miss.
func TestDataTextKeysSource(t *testing.T) {
	p := NewPlatform()
	p.Cache = NewResultCache()
	compileUpload(t, p, "csv", lifecycleCSV)
	d := compileUpload(t, p, "csv\n  separator: ';'", lifecycleCSV)
	if hits := d.Result().Stats.CacheHits; len(hits) != 0 {
		t.Fatalf("a new separator over the same bytes hit %v", hits)
	}
}

// TestDegradedSourceNeverCached: a run stores nothing in the node cache
// downstream of a source that degraded, so an upload that does not
// decode never becomes a hit that reports the source ok.
func TestDegradedSourceNeverCached(t *testing.T) {
	p := NewPlatform()
	p.Cache = NewResultCache()
	bad := "\"east,widget,10\n"
	for run := 1; run <= 2; run++ {
		d := compileUpload(t, p, "csv\n  on_error: empty", bad)
		if h := d.Health(); h.Status != "degraded" || h.Sources[0].Status != "empty" {
			t.Fatalf("run %d: health %+v, want D.sales empty", run, h)
		}
		if hits := d.Result().Stats.CacheHits; len(hits) > 0 {
			t.Fatalf("run %d served %v from the node cache", run, hits)
		}
	}
	if n := p.Cache.Stats().Entries; n != 0 {
		t.Errorf("degraded runs stored %d node cache entries, want 0", n)
	}
}

// TestFailedRunEndsSourceSpans: a lazy source's span stays open while
// the run decides whether it is read; a run that fails on a later source
// first still ends it.
func TestFailedRunEndsSourceSpans(t *testing.T) {
	f, err := flowfile.Parse("spans", `
D:
  a: [k]
  b: [k]

D.a:
  source: data:a.csv

D.b:
  source: data:b.csv

F:
  +D.ka: D.a | T.count
  +D.kb: D.b | T.count

T:
  count:
    type: groupby
    groupby: [k]
`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewPlatform().Compile(f, map[string][]byte{"a.csv": []byte("x\n")})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("spans")
	d.SetTracer(tr)
	if err := d.Run(); err == nil || !strings.Contains(err.Error(), "b.csv") {
		t.Fatalf("run error %v, want the missing upload b.csv", err)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "source D.a" && !slices.Contains(sp.Flags, "unread") {
			t.Errorf("source D.a span %+v, want ended and flagged unread", sp)
		}
	}
}

// refreshShapedFlow is a served refresh's shape: an uploaded CSV through
// an inline filter and map into two group-bys, one feeding a top-n, read
// by three widgets. FORMAT names the source's format.
const refreshShapedFlow = `
D:
  sales: [region, product, channel, amount, qty]

D.sales:
  source: data:sales.csv
  format: FORMAT

F:
  D.scored: D.sales | T.keep | T.revenue
  +D.by_region: D.scored | T.sum_region
  D.by_product: D.scored | T.sum_product
  +D.top_products: D.by_product | T.top

T:
  keep:
    type: filter_by
    filter_expression: qty > 2
  revenue:
    type: map
    operator: expr
    expression: amount * qty
    output: revenue
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: revenue
        out_field: total
  sum_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: revenue
        out_field: total
  top:
    type: topn
    orderby_column: [total DESC]
    limit: 10

W:
  regions:
    type: BarChart
    source: D.by_region
    x: region
    y: total
  share:
    type: Pie
    source: D.by_region
    text: region
    size: total
  leaders:
    type: Grid
    source: D.top_products
`

// refreshCSV is rows of the refresh shape: 8 regions, 200 products and 4
// channels, drawn from a fixed sequence.
func refreshCSV(rows int) string {
	var sb strings.Builder
	channels := []string{"web", "store", "partner", "phone"}
	x := uint32(1)
	for i := range rows {
		x = x*1664525 + 1013904223
		fmt.Fprintf(&sb, "r%d,p%d,%s,%d,%d\n", x>>29, (x>>8)%200, channels[i%4], 1+(x>>12)%500, 1+(x>>20)%9)
	}
	return sb.String()
}

// wholeFormat is csv that declines the push and applies the rest of
// the offer: it decodes a table, as every source did before sources
// streamed.
type wholeFormat struct{ r *connector.Registry }

func (f wholeFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	return f.r.Decode(&flowfile.DataDef{Name: d.Name}, s, payload)
}

func (f wholeFormat) DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd connector.Pushdown) (*table.Table, connector.PushdownResult, error) {
	pd.Push = nil
	return f.r.DecodePushdown(&flowfile.DataDef{Name: d.Name}, s, payload, pd, nil, 0)
}

// TestStreamedSourceAllocs: a refresh-shaped run over a 30,000-row upload
// streams its source into the group-bys, its source span flagged
// streamed, and allocates under half the bytes of the same run over a
// format that declines the push and decodes the upload whole, as every
// run did before sources streamed. Both give the same endpoints.
func TestStreamedSourceAllocs(t *testing.T) {
	upload := map[string][]byte{"sales.csv": []byte(refreshCSV(30000))}
	bytesPerRun := func(format string) (*Dashboard, float64) {
		p := NewPlatform()
		if err := p.Connectors.RegisterFormat("whole", wholeFormat{connector.NewRegistry(connector.Options{})}); err != nil {
			t.Fatal(err)
		}
		f, err := flowfile.Parse("refresh", strings.Replace(refreshShapedFlow, "FORMAT", format, 1))
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Compile(f, upload)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		const runs = 5
		for i := range runs + 1 {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return d, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	streamed, got := bytesPerRun("csv")
	whole, want := bytesPerRun("whole")
	for _, name := range []string{"by_region", "top_products"} {
		a, _ := streamed.Endpoint(name)
		b, _ := whole.Endpoint(name)
		if !a.Equal(b) {
			t.Fatalf("D.%s streamed:\n%s\ndecoded whole:\n%s", name, a.Format(0), b.Format(0))
		}
	}
	tr := obs.NewTrace("refresh")
	streamed.SetTracer(tr)
	if err := streamed.Run(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if rows, _ := sp.Int("rows_out"); sp.Name == "source D.sales" && (!slices.Contains(sp.Flags, "streamed") || rows != 30000) {
			t.Fatalf("source span %+v, want flagged streamed with 30000 rows out", sp)
		}
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if got > want/2 {
		t.Errorf("a streamed run allocates %.0f KiB, want under half of a whole decode's %.0f KiB", got/1024, want/1024)
	}
	t.Logf("streamed %.0f KiB per run, decoded whole %.0f KiB", got/1024, want/1024)
}

// TestLazySourceReadConcurrently: after a run, readers on several
// goroutines may each have Result.Table decode a lazy source and build
// the inline node over it (run it with -race).
func TestLazySourceReadConcurrently(t *testing.T) {
	d := compileUpload(t, NewPlatform(), "csv", lifecycleCSV)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if big, ok := d.Result().Table("big"); !ok || big.Len() != 3 {
				t.Errorf("D.big from the lazy source: %v, want 3 rows", ok)
			}
		}()
	}
	wg.Wait()
}
