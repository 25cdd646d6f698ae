package server

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/store"
)

// authorShapedFlow is the save-and-rerun loop's dashboard: an uploaded
// CSV through an inline filter into three group-bys, and a top-n whose
// limit each save edits.
func authorShapedFlow(limit int) string {
	return fmt.Sprintf(`
D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  D.big: D.sales | T.keep
  +D.by_region: D.big | T.sum_region
  D.by_product: D.big | T.sum_product
  +D.leaders: D.by_product | T.top

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
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  top:
    type: topn
    orderby_column: [total DESC]
    limit: %d

W:
  regions:
    type: BarChart
    source: D.by_region
    x: region
    y: total
`, limit)
}

// unreadCycleAllocs is what one save + run cycle of authorShapedFlow
// allocates on a durable server once D.leaders is the only node that
// misses (go1.24, linux/amd64): D.sales is fetched and keyed by its
// upload, never decoded. Keying it by its decoded table, as runs did
// before, decoded the 300-row upload on every cycle: 369 objects.
const unreadCycleAllocs = 329

// TestUnreadSourceAllocs pins the save-and-rerun loop to leaving a source
// undecoded when every node that reads it is a node-cache hit: its
// source span is flagged unread and carries no rows_out, and the cycle
// allocates at most unreadCycleAllocs + 2 %.
func TestUnreadSourceAllocs(t *testing.T) {
	s, _, _ := newDurableServer(t, store.NewMemFS(), false)
	s.UploadData("author", "sales.csv", []byte(bigSalesCSV(300)))
	limit := 5
	cycle := func() *dashboard.Dashboard {
		t.Helper()
		limit = 11 - limit // each save edits the top-n's limit: 6, 5, 6 …
		if _, err := s.SaveDashboard("author", "tester", []byte(authorShapedFlow(limit))); err != nil {
			t.Fatal(err)
		}
		d, err := s.Run("author")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cycle()
	d := cycle()
	if hits := d.Result().Stats.CacheHits; !slices.Equal(hits, []string{"by_region", "by_product"}) {
		t.Fatalf("cache hits %v, want by_region and by_product", hits)
	}
	var src *obs.Span
	for _, sp := range d.Trace().Spans() {
		if sp.Name == "source D.sales" {
			src = sp
		}
	}
	if _, rows := src.Int("rows_out"); src == nil || !slices.Contains(src.Flags, "unread") || rows || len(src.Children) != 0 {
		t.Fatalf("source span %+v, want flagged unread, no rows_out and no decode", src)
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if n := testing.AllocsPerRun(20, func() { cycle() }); n > unreadCycleAllocs*1.02 {
		t.Errorf("a save + run cycle with an unread source allocates %.0f objects, want at most %d + 2 %%", n, unreadCycleAllocs)
	}
}

// TestProfileAfterCachedRerun: GET …/profile after a rerun served wholly
// from the node cache, which decodes no source, equals the cold run's:
// the profile decodes a released source again from its upload.
func TestProfileAfterCachedRerun(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/author"
	for path, body := range map[string]string{"": authorShapedFlow(5), "/data/sales.csv": bigSalesCSV(50)} {
		if code, out := do(t, http.MethodPut, base+path, body); code != 200 {
			t.Fatalf("PUT %s = %d: %s", path, code, out)
		}
	}
	profileAfterRun := func() (string, string) {
		if code, out := do(t, http.MethodPost, base+"/run", ""); code != 200 {
			t.Fatalf("run = %d: %s", code, out)
		}
		_, stats := do(t, http.MethodGet, base+"/stats", "")
		code, out := do(t, http.MethodGet, base+"/profile", "")
		if code != 200 {
			t.Fatalf("profile = %d: %s", code, out)
		}
		return string(stats), string(out)
	}
	_, cold := profileAfterRun()
	stats, warm := profileAfterRun()
	if !strings.Contains(stats, `"tasks_run":0`) {
		t.Fatalf("the rerun was not served from the node cache: %s", stats)
	}
	if !strings.Contains(cold, "sales_profile") || warm != cold {
		t.Errorf("profile after a cached rerun:\n%s\nwant the cold run's:\n%s", warm, cold)
	}
}
