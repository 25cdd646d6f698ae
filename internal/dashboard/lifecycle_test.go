package dashboard

import (
	"slices"
	"strings"
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
