package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
)

// FuzzSelectBody sends arbitrary selection bodies to arbitrary widget
// names through the real mux, on a dashboard that has run. No response
// is a 5xx (or a panic), and every 4xx carries the JSON error shape.
func FuzzSelectBody(f *testing.F) {
	ts, _ := newInteractiveServer(f)
	h := ts.Config.Handler
	for _, seed := range []struct{ widget, body string }{
		{"regions", `{"values":["east"]}`},
		{"regions", `{"range":["east","west"]}`},
		{"regions", `{"values":[]}`},
		{"regions", `{"values":["east"]} trailing`},
		{"regions", `null`},
		{"regions", `[1]`},
		{"regions", ``},
		{"totals", `{"values":["east","west"]}`},
		{"nope", `{"values":["x"]}`},
		{"a/b", `{}`},
		{"..", `{}`},
	} {
		f.Add(seed.widget, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, widget string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/dashboards/inter/select/"+url.PathEscape(widget), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkShape(t, fmt.Sprintf("select %q with %q", widget, body), rec)
	})
}

// checkShape fails a fuzzed request that answered a 5xx, a redirect or
// a body that is not JSON, or a 4xx without the JSON error shape.
func checkShape(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 || rec.Code >= 300 && rec.Code < 400 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s = %d: %s", what, rec.Code, rec.Body)
	}
	var shape struct{ Error string }
	if rec.Code >= 400 && (json.Unmarshal(rec.Body.Bytes(), &shape) != nil || shape.Error == "") {
		t.Fatalf("%s = %d without the JSON error shape: %s", what, rec.Code, rec.Body)
	}
}

// adhocFlow serves two endpoints, the sales rows that pass a filter and
// their sums by region, for FuzzAdhocPath to query.
const adhocFlow = `
D:
  sales: [region, product, amount]

D.sales:
  source: mem:sales.csv
  format: csv

F:
  +D.sold: D.sales | T.keep
  +D.by_region: D.sold | T.sum_by_region

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  sum_by_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`

// FuzzAdhocPath sends arbitrary segments to the ad-hoc path query,
// GET /dashboards/{name}/ds/{ds}/groupby/{col}/{agg}/{vcol}, through the
// real mux on a dashboard that has run. No response is a 5xx (or a
// panic), every 4xx carries the JSON error shape, and a 200's rows are
// the row engine's: a task.GroupBySpec run over the endpoint.
func FuzzAdhocPath(f *testing.F) {
	s, ts := newTestServer(f)
	if _, err := s.SaveDashboard("adhoc", "tester", []byte(adhocFlow)); err != nil {
		f.Fatal(err)
	}
	d, err := s.Run("adhoc")
	if err != nil {
		f.Fatal(err)
	}
	h := ts.Config.Handler
	for _, seed := range [][4]string{
		{"sold", "region", "sum", "amount"},
		{"sold", "product", "count", "amount"},
		{"by_region", "region", "max", "total"},
		{"sold", "region", "median", "product"},
		{"sold", "amount", "count_distinct", "region"},
		{"sold", "region", "sum", "region"},
		{"sold", "region", "nope", "amount"},
		{"sold", "missing", "sum", "amount"},
		{"nope", "region", "sum", "amount"},
		{"sales", "region", "sum", "amount"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, ds, col, agg, vcol string) {
		path := "/dashboards/adhoc/ds/" + url.PathEscape(ds) + "/groupby/" + url.PathEscape(col) + "/" + url.PathEscape(agg) + "/" + url.PathEscape(vcol)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		what := fmt.Sprintf("GET %s", path)
		checkShape(t, what, rec)
		if rec.Code != http.StatusOK {
			return
		}
		in, ok := d.Endpoint(ds)
		if !ok {
			t.Fatalf("%s = 200 over no endpoint", what)
		}
		spec := &task.GroupBySpec{GroupBy: []string{col}, Aggs: []task.AggSpec{{Operator: agg, ApplyOn: vcol, OutField: agg + "_" + vcol}}}
		want, err := spec.Exec(&task.Env{}, []*table.Table{in}, []string{ds})
		if err != nil {
			t.Fatalf("%s = 200, the group-by fails: %v", what, err)
		}
		if b, err := connector.EncodeJSON(want); err != nil || !bytes.Equal(b, rec.Body.Bytes()) {
			t.Fatalf("%s = %s, the group-by %s (%v)", what, rec.Body, b, err)
		}
	})
}

// TestSelectBodyLimits: the select body is read like every other body —
// an oversize one is a 413 — and must be exactly one JSON object.
func TestSelectBodyLimits(t *testing.T) {
	_, base := newInteractiveServer(t)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"one object", `{"values":["east"]}`, http.StatusOK},
		{"over the limit", `{"values":["` + strings.Repeat("e", maxSelectBytes) + `"]}`, http.StatusRequestEntityTooLarge},
		{"bytes after the object", `{"values":["east"]} {}`, http.StatusBadRequest},
		{"null", ` null`, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
	} {
		code, body := do(t, http.MethodPost, base+"/select/regions", tc.body)
		var shape map[string]any
		if code != tc.want || json.Unmarshal(body, &shape) != nil || (code != http.StatusOK && shape["error"] == nil) {
			t.Errorf("%s: %d %.100s; want %d with a JSON body", tc.name, code, body, tc.want)
		}
	}
}
