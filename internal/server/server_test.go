package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
)

const serverFlow = `
D:
  sales: [region, product, amount]

D.sales:
  source: mem:sales.csv
  format: csv

F:
  +D.by_region: D.sales | T.sum_by_region

T:
  sum_by_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`

const salesCSV = `east,widget,10
east,gadget,20
west,widget,5
`

func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"sales.csv": []byte(salesCSV)},
	})
	s := New(p)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

func TestDashboardLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/sales_dash"

	// Create.
	code, body := do(t, http.MethodPut, base, serverFlow)
	if code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	// List.
	code, body = do(t, http.MethodGet, ts.URL+"/dashboards", "")
	if code != 200 || !strings.Contains(string(body), "sales_dash") {
		t.Fatalf("list = %d: %s", code, body)
	}
	// Fetch the content back.
	code, body = do(t, http.MethodGet, base, "")
	if code != 200 || !strings.Contains(string(body), "sum_by_region") {
		t.Fatalf("GET = %d: %s", code, body)
	}
	// Run.
	code, body = do(t, http.MethodPost, base+"/run", "")
	if code != 200 {
		t.Fatalf("run = %d: %s", code, body)
	}
	var runResp struct {
		Endpoints []string `json:"endpoints"`
		TasksRun  int      `json:"tasks_run"`
	}
	if err := json.Unmarshal(body, &runResp); err != nil {
		t.Fatal(err)
	}
	if len(runResp.Endpoints) != 1 || runResp.Endpoints[0] != "by_region" {
		t.Errorf("endpoints = %v", runResp.Endpoints)
	}
	// /ds listing (Figure 27).
	code, body = do(t, http.MethodGet, base+"/ds", "")
	if code != 200 || !strings.Contains(string(body), `"by_region"`) {
		t.Fatalf("/ds = %d: %s", code, body)
	}
	// Dataset rows (Figure 28).
	code, body = do(t, http.MethodGet, base+"/ds/by_region", "")
	if code != 200 {
		t.Fatalf("/ds/by_region = %d: %s", code, body)
	}
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["total"].(float64) != 30 {
		t.Errorf("rows = %v", rows)
	}
	// CSV form.
	code, body = do(t, http.MethodGet, base+"/ds/by_region?format=csv", "")
	if code != 200 || !strings.HasPrefix(string(body), "region,total") {
		t.Fatalf("csv = %d: %s", code, body)
	}
	// Ad-hoc query (Figure 30).
	code, body = do(t, http.MethodGet, base+"/ds/by_region/groupby/region/sum/total", "")
	if code != 200 {
		t.Fatalf("adhoc = %d: %s", code, body)
	}
	// Data explorer (Figure 29).
	code, body = do(t, http.MethodGet, base+"/explore", "")
	if code != 200 || !strings.Contains(string(body), "by_region") {
		t.Fatalf("explore = %d: %s", code, body)
	}
	// Commit log.
	code, body = do(t, http.MethodGet, base+"/log", "")
	if code != 200 || !strings.Contains(string(body), "save sales_dash") {
		t.Fatalf("log = %d: %s", code, body)
	}
}

func TestPutRejectsBadFlowFile(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, http.MethodPut, ts.URL+"/dashboards/bad", "X:\n  nope: 1\n")
	if code != 422 {
		t.Fatalf("expected 422, got %d: %s", code, body)
	}
	// The rejected save must not create the dashboard.
	code, _ = do(t, http.MethodGet, ts.URL+"/dashboards/bad", "")
	if code != 404 {
		t.Errorf("rejected dashboard exists: %d", code)
	}
}

// A valid save with a lintable mistake still commits, but the response
// carries the advisory findings — the editor's non-blocking warnings.
func TestPutReturnsLintFindings(t *testing.T) {
	_, ts := newTestServer(t)
	flow := strings.Replace(serverFlow, "+D.by_region: D.sales | T.sum_by_region",
		"+D.by_region: D.sales | T.keep | T.sum_by_region", 1) +
		"  keep:\n    type: filter_by\n    filter_expression: amont > 3\n"
	code, body := do(t, http.MethodPut, ts.URL+"/dashboards/warned", flow)
	if code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	var resp struct {
		Commit string `json:"commit"`
		Lint   []struct {
			Rule   string `json:"rule"`
			Entity string `json:"entity"`
			Hint   string `json:"hint"`
		} `json:"lint"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Commit == "" {
		t.Fatal("lint findings must not block the commit")
	}
	found := false
	for _, f := range resp.Lint {
		if f.Rule == "FL003" && f.Entity == "T.keep" && strings.Contains(f.Hint, `"amount"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("PUT response lacks the FL003 finding: %s", body)
	}
	// A clean save carries no lint key at all.
	code, body = do(t, http.MethodPut, ts.URL+"/dashboards/clean", serverFlow)
	if code != 200 || strings.Contains(string(body), `"lint"`) {
		t.Fatalf("clean PUT = %d: %s", code, body)
	}
}

func TestLintRoute(t *testing.T) {
	_, ts := newTestServer(t)
	flow := strings.Replace(serverFlow, "+D.by_region: D.sales | T.sum_by_region",
		"+D.by_region: D.sales | T.keep | T.sum_by_region", 1) +
		"  keep:\n    type: filter_by\n    filter_expression: amont > 3\n"
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/lintme", flow); code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	code, body := do(t, http.MethodGet, ts.URL+"/dashboards/lintme/lint", "")
	if code != 200 {
		t.Fatalf("GET lint = %d: %s", code, body)
	}
	var resp struct {
		Findings []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
			Line     int    `json:"line"`
		} `json:"findings"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors == 0 || len(resp.Findings) == 0 {
		t.Fatalf("lint route reports nothing: %s", body)
	}
	if resp.Findings[0].Rule == "" || resp.Findings[0].Severity == "" || resp.Findings[0].Line == 0 {
		t.Fatalf("finding missing fields: %s", body)
	}
	// Unknown dashboards 404.
	if code, _ := do(t, http.MethodGet, ts.URL+"/dashboards/ghost/lint", ""); code != 404 {
		t.Fatalf("lint of unknown dashboard = %d, want 404", code)
	}
}

func TestRunFailureSurfacesError(t *testing.T) {
	_, ts := newTestServer(t)
	// References a mem source that does not exist.
	flow := strings.Replace(serverFlow, "mem:sales.csv", "mem:missing.csv", 1)
	code, _ := do(t, http.MethodPut, ts.URL+"/dashboards/broken", flow)
	if code != 200 {
		t.Fatal("PUT failed")
	}
	code, body := do(t, http.MethodPost, ts.URL+"/dashboards/broken/run", "")
	if code != 422 || !strings.Contains(string(body), "missing.csv") {
		t.Fatalf("run = %d: %s", code, body)
	}
}

func TestUploadAndUseDictionary(t *testing.T) {
	_, ts := newTestServer(t)
	flow := `
D:
  notes: [body]

D.notes:
  source: data:notes.csv
  format: csv

F:
  +D.tags: D.notes | T.tag | T.count_tags

T:
  tag:
    type: map
    operator: extract
    transform: body
    dict: tags.txt
    output: tag
  count_tags:
    type: groupby
    groupby: [tag]
`
	base := ts.URL + "/dashboards/notes"
	if code, body := do(t, http.MethodPut, base, flow); code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPut, base+"/data/tags.txt", "widget,Widget\ngadget,Gadget\n"); code != 200 {
		t.Fatalf("upload = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPut, base+"/data/notes.csv", "\"bought a widget\"\n\"returned a gadget\"\n\"no tags here\"\n"); code != 200 {
		t.Fatalf("upload notes = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPost, base+"/run", ""); code != 200 {
		t.Fatalf("run = %d: %s", code, body)
	}
	code, body := do(t, http.MethodGet, base+"/ds/tags", "")
	if code != 200 || !strings.Contains(string(body), "Widget") {
		t.Fatalf("tags = %d: %s", code, body)
	}
}

// TestReuploadsMatchFreshRun: with the node cache and the run-result
// cache on, a run after re-uploading the data, a dictionary an extract
// reads, or the stylesheet serves exactly what a fresh server serves
// over the same uploads. A node signature that missed the uploads
// served the old dictionary's tags.
func TestReuploadsMatchFreshRun(t *testing.T) {
	const flow = `
D:
  notes: [body]

D.notes:
  source: data:notes.csv
  format: csv

F:
  +D.tags: D.notes | T.tag | T.count_tags
  +D.raw: D.notes | T.first

T:
  tag:
    type: map
    operator: extract
    transform: body
    dict: tags.txt
    output: tag
  count_tags:
    type: groupby
    groupby: [tag]
  first:
    type: limit
    limit: 2
`
	uploads := map[string]string{
		"notes.csv": "\"bought a widget\"\n\"returned a gadget\"\n",
		"tags.txt":  "widget,Widget\ngadget,Gadget\n",
		"style.css": ".widget{color:#123}",
	}
	serve := func() string {
		s := New(dashboard.NewPlatform(), WithResultCache(16))
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL + "/dashboards/notes"
	}
	put := func(base, path, body string) {
		if code, out := do(t, http.MethodPut, base+path, body); code != 200 {
			t.Fatalf("PUT %s = %d: %s", path, code, out)
		}
	}
	// bodies runs the dashboard and returns every endpoint's /ds body.
	bodies := func(base string) map[string]string {
		if code, out := do(t, http.MethodPost, base+"/run", ""); code != 200 {
			t.Fatalf("run = %d: %s", code, out)
		}
		_, list := do(t, http.MethodGet, base+"/ds", "")
		var ds struct{ Datasets []struct{ Name string } }
		if err := json.Unmarshal(list, &ds); err != nil || len(ds.Datasets) != 2 {
			t.Fatalf("datasets = %s (%v)", list, err)
		}
		got := map[string]string{}
		for _, d := range ds.Datasets {
			_, body := do(t, http.MethodGet, base+"/ds/"+d.Name, "")
			got[d.Name] = string(body)
		}
		return got
	}
	cached := serve()
	put(cached, "", flow)
	for file, body := range uploads {
		put(cached, "/data/"+file, body)
	}
	bodies(cached)
	for _, edit := range [][2]string{
		{"notes.csv", "\"a widget\"\n\"a gadget\"\n\"no tags here\"\n"},
		{"tags.txt", "widget,Gizmo\ngadget,Gadget\n"},
		{"style.css", ".widget{color:#456}"},
	} {
		uploads[edit[0]] = edit[1]
		put(cached, "/data/"+edit[0], edit[1])
		fresh := serve()
		put(fresh, "", flow)
		for file, body := range uploads {
			put(fresh, "/data/"+file, body)
		}
		got, want := bodies(cached), bodies(fresh)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("after re-uploading %s, /ds/%s = %s, a fresh run serves %s", edit[0], name, got[name], w)
			}
		}
	}
}

func TestSharedCatalogEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	flow := serverFlow + "\nD.by_region:\n  publish: region_totals\n"
	if _, err := s.SaveDashboard("pub", "tester", []byte(flow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("pub"); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodGet, ts.URL+"/shared", "")
	if code != 200 || !strings.Contains(string(body), "region_totals") {
		t.Fatalf("shared = %d: %s", code, body)
	}
}

func TestSelectEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	flow := serverFlow + `
W:
  regions:
    type: List
    source: D.by_region
    text: region

  totals:
    type: BarChart
    source: D.by_region | T.pick_region
    x: region
    y: total

T:
  pick_region:
    type: filter_by
    filter_by: [region]
    filter_source: W.regions
    filter_val: [text]

L:
  rows:
    - [span4: W.regions, span8: W.totals]
`
	if _, err := s.SaveDashboard("inter", "tester", []byte(flow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("inter"); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodPost, ts.URL+"/dashboards/inter/select/regions", `{"values":["east"]}`)
	if code != 200 || !strings.Contains(string(body), "totals") {
		t.Fatalf("select = %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/dashboards/inter/html", "")
	if code != 200 || !strings.Contains(string(body), "data-widget=\"totals\"") {
		t.Fatalf("html = %d", code)
	}
	// The bar chart should now only show east.
	d, _ := s.Run("inter") // rerun resets; select again via API on live dashboard
	_ = d
	code, _ = do(t, http.MethodPost, ts.URL+"/dashboards/inter/select/regions", `{"values":["west"]}`)
	if code != 200 {
		t.Fatalf("re-select = %d", code)
	}
}

func TestProfileEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.SaveDashboard("prof", "tester", []byte(serverFlow)); err != nil {
		t.Fatal(err)
	}
	// Before run: 404-ish error.
	code, _ := do(t, http.MethodGet, ts.URL+"/dashboards/prof/profile", "")
	if code != 404 {
		t.Fatalf("profile before run = %d", code)
	}
	if _, err := s.Run("prof"); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodGet, ts.URL+"/dashboards/prof/profile", "")
	if code != 200 || !strings.Contains(string(body), "by_region_profile") {
		t.Fatalf("profile = %d: %s", code, body)
	}
	if !strings.Contains(string(body), "distinct") {
		t.Errorf("profile missing stats columns: %s", body)
	}
}

func TestRunResponseIncludesTimings(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := do(t, http.MethodPut, ts.URL+"/dashboards/timed", serverFlow); code != 200 {
		t.Fatal("PUT failed")
	}
	code, body := do(t, http.MethodPost, ts.URL+"/dashboards/timed/run", "")
	if code != 200 || !strings.Contains(string(body), "slowest_stages") {
		t.Fatalf("run = %d: %s", code, body)
	}
}

func TestDeviceParamAndStylesheet(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.SaveDashboard("styled", "tester", []byte(serverFlow+`
W:
  g:
    type: Grid
    source: D.by_region

L:
  rows:
    - [span6: W.g]
`)); err != nil {
		t.Fatal(err)
	}
	s.UploadData("styled", "style.css", []byte(".widget{background:#123}"))
	if _, err := s.Run("styled"); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodGet, ts.URL+"/dashboards/styled/html?device=mobile", "")
	if code != 200 || !strings.Contains(string(body), "span12") {
		t.Fatalf("mobile html = %d", code)
	}
	if !strings.Contains(string(body), "background:#123") {
		t.Errorf("uploaded stylesheet not applied")
	}
	// Error payloads carry diagnostics, not raw engine errors.
	flow := strings.Replace(serverFlow, "apply_on: amount", "apply_on: amout", 1)
	if code, _ := do(t, http.MethodPut, ts.URL+"/dashboards/typo", flow); code != 200 {
		t.Fatal("PUT failed")
	}
	code, body = do(t, http.MethodPost, ts.URL+"/dashboards/typo/run", "")
	if code != 422 || !strings.Contains(string(body), "did you mean") {
		t.Fatalf("diagnosed run = %d: %s", code, body)
	}
}

func TestBranchMergeForkOverREST(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/collab"
	if code, _ := do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatal("PUT failed")
	}
	// Branch, edit on the branch, diff, merge.
	if code, body := do(t, http.MethodPost, base+"/branches/feature", ""); code != 200 {
		t.Fatalf("branch = %d: %s", code, body)
	}
	edited := serverFlow + "\n  extra:\n    type: distinct\n"
	if code, body := do(t, http.MethodPut, base+"/branches/feature", edited); code != 200 {
		t.Fatalf("branch put = %d: %s", code, body)
	}
	code, body := do(t, http.MethodGet, base+"/diff/feature", "")
	if code != 200 || !strings.Contains(string(body), "+ T.extra") {
		t.Fatalf("diff = %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, base+"/branches", "")
	if code != 200 || !strings.Contains(string(body), "feature") {
		t.Fatalf("branches = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPost, base+"/merge/feature", ""); code != 200 {
		t.Fatalf("merge = %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, base, "")
	if code != 200 || !strings.Contains(string(body), "extra:") {
		t.Fatalf("merged main missing branch content: %s", body)
	}
	// Fork into a new dashboard and run it.
	if code, body := do(t, http.MethodPost, base+"/fork/collab_fork", ""); code != 200 {
		t.Fatalf("fork = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPost, ts.URL+"/dashboards/collab_fork/run", ""); code != 200 {
		t.Fatalf("fork run = %d: %s", code, body)
	}
	// Forking over an existing dashboard is rejected.
	if code, _ := do(t, http.MethodPost, base+"/fork/collab_fork", ""); code != 409 {
		t.Fatalf("duplicate fork = %d", code)
	}
}

func TestMergeConflictOverREST(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/conflict"
	if code, _ := do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatal("PUT failed")
	}
	if code, _ := do(t, http.MethodPost, base+"/branches/b", ""); code != 200 {
		t.Fatal("branch failed")
	}
	// Divergent edits to the same task.
	mainEdit := strings.Replace(serverFlow, "groupby: [region]", "groupby: [product]", 1)
	branchEdit := strings.Replace(serverFlow, "groupby: [region]", "groupby: [region, product]", 1)
	if code, _ := do(t, http.MethodPut, base, mainEdit); code != 200 {
		t.Fatal("main edit failed")
	}
	if code, _ := do(t, http.MethodPut, base+"/branches/b", branchEdit); code != 200 {
		t.Fatal("branch edit failed")
	}
	code, body := do(t, http.MethodPost, base+"/merge/b", "")
	if code != 409 || !strings.Contains(string(body), "T.sum_by_region") {
		t.Fatalf("conflict = %d: %s", code, body)
	}
}

func TestDiscoveryRoutes(t *testing.T) {
	s, ts := newTestServer(t)
	// Publisher dashboard.
	pubFlow := serverFlow + "\nD.by_region:\n  publish: region_totals\n"
	if _, err := s.SaveDashboard("pub", "tester", []byte(pubFlow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("pub"); err != nil {
		t.Fatal(err)
	}
	// Search by name and by column.
	code, body := do(t, http.MethodGet, ts.URL+"/shared/search?q=region", "")
	if code != 200 || !strings.Contains(string(body), "region_totals") {
		t.Fatalf("search = %d: %s", code, body)
	}
	// A second dashboard whose data shares the region column gets the
	// suggestion.
	if _, err := s.SaveDashboard("consumer", "tester", []byte(serverFlow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("consumer"); err != nil {
		t.Fatal(err)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/dashboards/consumer/suggest", "")
	if code != 200 || !strings.Contains(string(body), "region_totals") {
		t.Fatalf("suggest = %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"shared_columns":["region"`) {
		t.Errorf("suggestion missing join keys: %s", body)
	}
}

func TestEditorPage(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.SaveDashboard("edit_me", "tester", []byte(serverFlow)); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodGet, ts.URL+"/dashboards/edit_me/edit", "")
	if code != 200 {
		t.Fatalf("edit = %d", code)
	}
	page := string(body)
	for _, want := range []string{"sum_by_region", "Save &amp; Run", `const name = "edit_me"`} {
		if !strings.Contains(page, want) {
			t.Errorf("editor page missing %q", want)
		}
	}
	// A fresh name serves an empty editor — the /create flow.
	code, body = do(t, http.MethodGet, ts.URL+"/dashboards/brand_new/edit", "")
	if code != 200 || !strings.Contains(string(body), "brand_new") {
		t.Fatalf("create flow = %d", code)
	}
}

func TestErrorPaths(t *testing.T) {
	s, ts := newTestServer(t)
	// Everything 404s before the dashboard exists / runs.
	for _, path := range []string{
		"/dashboards/ghost", "/dashboards/ghost/ds", "/dashboards/ghost/html",
		"/dashboards/ghost/explore", "/dashboards/ghost/log", "/dashboards/ghost/profile",
		"/dashboards/ghost/branches", "/dashboards/ghost/suggest",
	} {
		if code, _ := do(t, http.MethodGet, ts.URL+path, ""); code != 404 {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	if _, err := s.SaveDashboard("e", "t", []byte(serverFlow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("e"); err != nil {
		t.Fatal(err)
	}
	// Unknown dataset and bad aggregate on the ad-hoc path.
	if code, _ := do(t, http.MethodGet, ts.URL+"/dashboards/e/ds/nope", ""); code != 404 {
		t.Errorf("unknown dataset should 404")
	}
	code, body := do(t, http.MethodGet, ts.URL+"/dashboards/e/ds/by_region/groupby/region/p99/total", "")
	if code != 400 || !strings.Contains(string(body), "p99") {
		t.Errorf("bad aggregate = %d: %s", code, body)
	}
	// Malformed selection body.
	if code, _ := do(t, http.MethodPost, ts.URL+"/dashboards/e/select/x", "{not json"); code != 400 {
		t.Errorf("bad json should 400")
	}
	// Selecting an unknown widget.
	if code, _ := do(t, http.MethodPost, ts.URL+"/dashboards/e/select/ghost", `{"values":["a"]}`); code != 400 {
		t.Errorf("unknown widget should 400")
	}
	// Path traversal in uploads.
	if code, _ := do(t, http.MethodPut, ts.URL+"/dashboards/e/data/..%2Fescape", "x"); code != 400 {
		t.Errorf("traversal upload should 400")
	}
	// Branch operations on unknown branches.
	if code, _ := do(t, http.MethodGet, ts.URL+"/dashboards/e/branches/nope", ""); code != 404 {
		t.Errorf("unknown branch should 404")
	}
	if code, _ := do(t, http.MethodPost, ts.URL+"/dashboards/e/merge/nope", ""); code != 409 {
		t.Errorf("merge of unknown branch should conflict")
	}
	// Duplicate branch creation.
	if code, _ := do(t, http.MethodPost, ts.URL+"/dashboards/e/branches/b", ""); code != 200 {
		t.Fatal("branch create failed")
	}
	if code, _ := do(t, http.MethodPost, ts.URL+"/dashboards/e/branches/b", ""); code != 409 {
		t.Errorf("duplicate branch should 409")
	}
	// sbin wire format on the data API.
	code, body = do(t, http.MethodGet, ts.URL+"/dashboards/e/ds/by_region?format=sbin", "")
	if code != 200 || !strings.HasPrefix(string(body), "SBIN\x01") {
		t.Errorf("sbin endpoint = %d, prefix %q", code, string(body[:5]))
	}
}

// TestObservabilityRoutes drives the three tentpole surfaces over REST:
// per-run stats (?full=1), the execution trace (tree and Chrome JSON),
// and the ops meta-dashboard — plus the Prometheus /metrics endpoint.
func TestObservabilityRoutes(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/obsd"

	// Before any run, trace and stats are 404s.
	if code, _ := do(t, http.MethodGet, base+"/trace", ""); code != 404 {
		t.Errorf("trace before run = %d, want 404", code)
	}

	if code, body := do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPost, base+"/run", ""); code != 200 {
		t.Fatalf("run = %d: %s", code, body)
	}

	// Stats without ?full=1 omit the per-stage timings.
	code, body := do(t, http.MethodGet, base+"/stats", "")
	if code != 200 {
		t.Fatalf("stats = %d: %s", code, body)
	}
	var brief map[string]any
	if err := json.Unmarshal(body, &brief); err != nil {
		t.Fatal(err)
	}
	if _, ok := brief["timings"]; ok {
		t.Error("brief stats include full timings")
	}
	if _, ok := brief["slowest_stages"]; !ok {
		t.Error("stats missing slowest_stages")
	}

	// ?full=1 includes every stage with the satellite fields.
	code, body = do(t, http.MethodGet, base+"/stats?full=1", "")
	if code != 200 {
		t.Fatalf("stats?full=1 = %d: %s", code, body)
	}
	var full struct {
		Timings []struct {
			Output      string `json:"output"`
			Stage       string `json:"stage"`
			RowsIn      int    `json:"rows_in"`
			QueueWaitUS int64  `json:"queue_wait_us"`
			Plan        string `json:"plan"`
		} `json:"timings"`
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Timings) == 0 {
		t.Fatalf("full stats have no timings: %s", body)
	}
	var sawRowsIn, sawPlan bool
	for _, st := range full.Timings {
		if st.RowsIn > 0 {
			sawRowsIn = true
		}
		if st.Plan != "" {
			sawPlan = true
		}
	}
	if !sawRowsIn {
		t.Errorf("no stage reports rows_in: %s", body)
	}
	if !sawPlan {
		t.Errorf("no stage carries a plan tag: %s", body)
	}

	// The trace tree names the run and the executed node.
	code, body = do(t, http.MethodGet, base+"/trace", "")
	if code != 200 || !strings.Contains(string(body), "run obsd") ||
		!strings.Contains(string(body), "node D.by_region") {
		t.Errorf("trace = %d: %s", code, body)
	}

	// The Chrome export is a JSON array of complete events.
	code, body = do(t, http.MethodGet, base+"/trace?format=chrome", "")
	if code != 200 {
		t.Fatalf("chrome trace = %d: %s", code, body)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, body)
	}
	if len(events) == 0 || events[0]["ph"] != "X" {
		t.Errorf("chrome events = %v", events)
	}

	// The ops meta-dashboard reports the run's own telemetry.
	code, body = do(t, http.MethodGet, base+"/ops", "")
	if code != 200 || !strings.Contains(string(body), "== summary ==") ||
		!strings.Contains(string(body), "tasks_run") {
		t.Errorf("ops = %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, base+"/ops?format=html", "")
	if code != 200 || !strings.Contains(string(body), "<html") {
		t.Errorf("ops html = %d", code)
	}

	// /metrics exposes the HTTP middleware and engine instrument
	// families in Prometheus text format.
	code, body = do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE si_http_requests_total counter",
		"# TYPE si_http_request_duration_seconds histogram",
		"# TYPE si_http_in_flight_requests gauge",
		`route="POST /dashboards/{name}/run"`,
		"# TYPE si_runs_total counter",
		"# TYPE si_engine_stage_duration_seconds histogram",
		`si_runs_total{status="ok"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestExplainEndpoint covers GET /dashboards/{name}/explain in both
// modes: compile-on-demand for a dashboard that has never run, and the
// live compilation (with its history-informed plan) after a run.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/sales_dash"

	code, body := do(t, http.MethodGet, base+"/explain", "")
	if code != 404 {
		t.Fatalf("explain before create = %d, want 404: %s", code, body)
	}
	if code, body = do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}

	// Never run: the latest commit compiles on demand. The unused
	// product column makes a visible projection-pushdown decision.
	code, body = do(t, http.MethodGet, base+"/explain", "")
	if code != 200 {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var resp struct {
		Dashboard string `json:"dashboard"`
		Text      string `json:"text"`
		Plan      struct {
			Nodes map[string]json.RawMessage `json:"nodes"`
			Order []string                   `json:"order"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("explain response not JSON: %v\n%s", err, body)
	}
	if resp.Dashboard != "sales_dash" || len(resp.Plan.Order) == 0 {
		t.Errorf("explain response = %+v", resp)
	}
	if !strings.Contains(resp.Text, "D.sales  (source)") ||
		!strings.Contains(resp.Text, "pushdown skip columns: product") {
		t.Errorf("plan text missing pushdown decision:\n%s", resp.Text)
	}

	// After a run the live dashboard serves the plan.
	if code, body = do(t, http.MethodPost, base+"/run", ""); code != 200 {
		t.Fatalf("run = %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, base+"/explain", "")
	if code != 200 || !strings.Contains(string(body), "pushdown skip columns: product") {
		t.Errorf("explain after run = %d: %s", code, body)
	}
}

// TestConcurrentUploadRunHTML races the three users of a dashboard's
// upload map — PUT …/data/{file} replacing it, POST …/run reading it
// lock-free through env.Resources, GET …/html reading style.css — which
// under -race (and, unluckily, without it: "fatal error: concurrent map
// read and map write") fails unless uploads are copy-on-write. Several
// page loads run at once: they share one live (or result-cached)
// dashboard, so the stylesheet must reach the render as an argument, not
// through a per-request write to that dashboard.
func TestConcurrentUploadRunHTML(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/live"
	flow := strings.Replace(serverFlow, "source: mem:sales.csv", "source: data:sales.csv", 1) + `
W:
  g:
    type: Grid
    source: D.by_region

L:
  rows:
    - [span12: W.g]
`
	for _, step := range [][3]string{
		{http.MethodPut, base, flow},
		{http.MethodPut, base + "/data/sales.csv", salesCSV},
		{http.MethodPost, base + "/run", ""},
	} {
		if code, body := do(t, step[0], step[1], step[2]); code != 200 {
			t.Fatalf("%s %s = %d: %s", step[0], step[1], code, body)
		}
	}
	var wg sync.WaitGroup
	for _, op := range [][3]string{
		{http.MethodPut, base + "/data/sales.csv", salesCSV + "west,gadget,7\n"},
		{http.MethodPut, base + "/data/style.css", ".widget{color:#123}"},
		{http.MethodPost, base + "/run", ""},
		{http.MethodGet, base + "/html", ""},
		{http.MethodGet, base + "/html", ""},
		{http.MethodGet, base + "/html?device=mobile", ""},
		{http.MethodGet, base + "/html", ""},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if code, body := do(t, op[0], op[1], op[2]); code != 200 {
					t.Errorf("%s %s = %d: %s", op[0], op[1], code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// interactiveFlow adds selection-driven widgets to serverFlow. Both
// refresh paths take part: W.totals refreshes through the cube, W.top
// through the stage runner.
const interactiveFlow = serverFlow + `
W:
  regions:
    type: List
    source: D.by_region
    text: region
  totals:
    type: BarChart
    source: D.by_region | T.pick_region
    x: region
    y: total
  top:
    type: Grid
    source: D.by_region | T.pick_region | T.top1

T:
  pick_region:
    type: filter_by
    filter_by: [region]
    filter_source: W.regions
    filter_val: [text]
  top1:
    type: topn
    orderby_column: [total DESC]
    limit: 1

L:
  rows:
    - [span4: W.regions, span8: W.totals]
    - [span12: W.top]
`

// newInteractiveServer serves interactiveFlow, run, as dashboard "inter"
// and returns the server and the dashboard's URL.
func newInteractiveServer(t testing.TB) (*httptest.Server, string) {
	t.Helper()
	s, ts := newTestServer(t)
	if _, err := s.SaveDashboard("inter", "tester", []byte(interactiveFlow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("inter"); err != nil {
		t.Fatal(err)
	}
	return ts, ts.URL + "/dashboards/inter"
}

// TestConcurrentInteractions: clients sharing one served dashboard
// select, render, read the trace and query its endpoint at once. A
// selection writes widget state and reuses trace span ids, so it must
// not interleave with another selection or with a render (run it under
// -race).
func TestConcurrentInteractions(t *testing.T) {
	_, base := newInteractiveServer(t)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				region := []string{"east", "west"}[(c+i)%2]
				for _, op := range [][3]string{
					{http.MethodPost, base + "/select/regions", `{"values":["` + region + `"]}`},
					{http.MethodGet, base + "/html", ""},
					{http.MethodGet, base + "/trace", ""},
					{http.MethodGet, base + "/ds/by_region/groupby/region/sum/total", ""},
				} {
					if code, body := do(t, op[0], op[1], op[2]); code != 200 {
						t.Errorf("%s %s = %d: %s", op[0], op[1], code, body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStalledReaderBlocksNoSelection: a viewer that stops reading an
// /html or /trace body part-way holds up no one else. Renders and trace
// reads take the dashboard's and the trace's locks, and must have let go
// of both before they write to the client.
func TestStalledReaderBlocksNoSelection(t *testing.T) {
	ts, base := newInteractiveServer(t)
	for _, path := range []string{"/html", "/trace", "/trace?format=chrome"} {
		w := &stalledWriter{ResponseRecorder: httptest.NewRecorder(), stalled: make(chan struct{}), release: make(chan struct{})}
		go ts.Config.Handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, base+path, nil))
		<-w.stalled
		done := make(chan error, 1)
		go func() {
			resp, err := http.Post(base+"/select/regions", "application/json", strings.NewReader(`{"values":["west"]}`))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("still blocked after 10s")
		}
		close(w.release)
		if err != nil {
			t.Errorf("select beside a stalled %s reader: %v", path, err)
		}
	}
}

// stalledWriter is a client that stops reading: its first Write blocks
// until release is closed.
type stalledWriter struct {
	*httptest.ResponseRecorder
	stalled, release chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() {
		close(w.stalled)
		<-w.release
	})
	return w.ResponseRecorder.Write(b)
}

// TestSaveDashboardValidates: the programmatic save path holds the line
// the HTTP routes hold — content that parses but does not validate (a
// dangling T. reference) never reaches the repository.
func TestSaveDashboardValidates(t *testing.T) {
	s, _ := newTestServer(t)
	bad := strings.Replace(serverFlow, "D.sales | T.sum_by_region", "D.sales | T.no_such_task", 1)
	if _, err := s.SaveDashboard("dangling", "tester", []byte(bad)); err == nil || !strings.Contains(err.Error(), "no_such_task") {
		t.Fatalf("SaveDashboard err = %v, want the undefined-task validation error", err)
	}
	if s.lookup("dangling").repo != nil {
		t.Error("rejected save still created a repository")
	}
}

// TestMergeRejectsUnloadableResult: a merge is a write to main like any
// save. Here the branch deletes T.spare while main adds a flow that
// uses it — no entry conflicts, but the merged file references an
// undefined task. The merge must answer 422 and leave main where it was;
// a merge that does land drops the dashboard's cached results like a save.
func TestMergeRejectsUnloadableResult(t *testing.T) {
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"sales.csv": []byte(salesCSV)},
	})
	s := New(p, WithResultCache(0))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	base := ts.URL + "/dashboards/m"

	spare := "  spare:\n    type: topn\n    orderby_column: [amount DESC]\n    limit: 1\n"
	withSpare := serverFlow + spare
	usesSpare := strings.Replace(withSpare, "\nT:", "  +D.top: D.sales | T.spare\n\nT:", 1)
	for _, step := range [][3]string{
		{http.MethodPut, base, withSpare},
		{http.MethodPost, base + "/branches/drop", ""},
		{http.MethodPut, base + "/branches/drop", serverFlow}, // deletes T.spare
		{http.MethodPut, base, usesSpare},                     // main now needs it
		{http.MethodPost, base + "/run", ""},
	} {
		if code, body := do(t, step[0], step[1], step[2]); code != 200 {
			t.Fatalf("%s %s = %d: %s", step[0], step[1], code, body)
		}
	}
	repo := s.lookup("m").repo
	before, _ := repo.Tip("main")
	if n := s.resultCache.Stats().Entries; n != 1 {
		t.Fatalf("result cache entries after run = %d, want 1", n)
	}

	code, body := do(t, http.MethodPost, base+"/merge/drop", "")
	if code != 422 || !strings.Contains(string(body), "spare") {
		t.Fatalf("merge leaving T.spare dangling = %d %s, want 422 naming the task", code, body)
	}
	if after, _ := repo.Tip("main"); after.Hash != before.Hash {
		t.Fatalf("rejected merge moved main: %s -> %s", before.Hash, after.Hash)
	}
	if code, body := do(t, http.MethodPost, base+"/run", ""); code != 200 {
		t.Fatalf("main must still run after the rejected merge: %d %s", code, body)
	}

	// A loadable merge lands and invalidates.
	ok := strings.Replace(usesSpare, "limit: 1", "limit: 2", 1)
	for _, step := range [][3]string{
		{http.MethodPost, base + "/branches/tune", ""},
		{http.MethodPut, base + "/branches/tune", ok},
		{http.MethodPost, base + "/merge/tune", ""},
	} {
		if code, body := do(t, step[0], step[1], step[2]); code != 200 {
			t.Fatalf("%s %s = %d: %s", step[0], step[1], code, body)
		}
	}
	if n := s.resultCache.Stats().Entries; n != 0 {
		t.Errorf("result cache entries after a merge into main = %d, want 0 (invalidated like a save)", n)
	}
	if _, body := do(t, http.MethodGet, base, ""); !strings.Contains(string(body), "limit: 2") {
		t.Errorf("merged content missing from main: %s", body)
	}
}

// zeros is an endless body of NUL bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestRequestBodyLimits: each route that reads a body refuses one over
// its limit with 413 — declared or chunked — and one shorter than it
// declared with 400, in the JSON error shape, and stores neither. A
// truncated flow file or upload must never be answered 200.
func TestRequestBodyLimits(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/dashboards/big"
	if code, _ := do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatal("PUT failed")
	}
	if code, _ := do(t, http.MethodPost, base+"/branches/b", ""); code != 200 {
		t.Fatal("branch failed")
	}
	// send issues a PUT whose Content-Length is declared (or -1 for a
	// chunked body) independently of the bytes that follow.
	send := func(url string, declared int64, body io.Reader) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, url, io.NopCloser(body))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	for _, route := range []struct {
		url   string
		limit int64
	}{
		{ts.URL + "/dashboards/fresh", maxFlowBytes},
		{base + "/branches/b", maxFlowBytes},
		{base + "/data/sales.csv", maxDataBytes},
	} {
		for _, tc := range []struct {
			name     string
			declared int64
			body     io.Reader
			want     int
		}{
			{"declared over the limit", route.limit + 1, strings.NewReader(""), http.StatusRequestEntityTooLarge},
			{"chunked over the limit", -1, io.LimitReader(zeros{}, route.limit+1), http.StatusRequestEntityTooLarge},
			{"shorter than declared", 100, strings.NewReader("east,widget"), http.StatusBadRequest},
		} {
			code, body := send(route.url, tc.declared, tc.body)
			var shape map[string]string
			if err := json.Unmarshal([]byte(body), &shape); code != tc.want || err != nil || shape["error"] == "" {
				t.Errorf("PUT %s, %s: %d %.100s; want %d and a JSON error", route.url, tc.name, code, body, tc.want)
			}
		}
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/dashboards/fresh", ""); code != 404 {
		t.Errorf("a refused flow file was stored: GET = %d", code)
	}
	if _, body := do(t, http.MethodGet, base+"/branches/b", ""); string(body) != serverFlow {
		t.Errorf("a refused branch save was stored: %.100s", body)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n := len(s.dashboards["big"].uploads); n != 0 {
		t.Errorf("a refused upload was stored: %d files", n)
	}
}

// TestReadBodyAllocatesAsBytesArrive: a declared Content-Length sizes the
// buffer exactly, but only bodyAhead of it before the bytes are there — a
// client that declares 48 MiB and sends eleven bytes costs the server one
// bodyAhead, not 48 MiB — and a body larger than bodyAhead still arrives
// whole, in a buffer with nothing to spare.
func TestReadBodyAllocatesAsBytesArrive(t *testing.T) {
	read := func(declared int64, sent []byte) (body []byte, ok bool, allocated uint64) {
		req := httptest.NewRequest(http.MethodPut, "/", io.NopCloser(bytes.NewReader(sent)))
		req.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, ok = readBody(httptest.NewRecorder(), req, maxDataBytes)
		runtime.ReadMemStats(&after)
		return body, ok, after.TotalAlloc - before.TotalAlloc
	}
	if _, ok, allocated := read(48<<20, []byte("east,widget")); ok || allocated > 2*bodyAhead {
		t.Errorf("48 MiB declared, 11 bytes sent: ok = %v, %d bytes allocated; want a refusal within %d", ok, allocated, 2*bodyAhead)
	}
	sent := bytes.Repeat([]byte("0123456789abcdef"), 3*bodyAhead/16)
	sent = append(sent, "tail\n"...)
	body, ok, allocated := read(int64(len(sent)), sent)
	if !ok || !bytes.Equal(body, sent) || cap(body) != len(body) {
		t.Errorf("%d bytes sent: ok = %v, %d bytes read into a buffer of %d", len(sent), ok, len(body), cap(body))
	}
	if allocated > 3*uint64(len(sent)) {
		t.Errorf("%d bytes sent: %d bytes allocated, want at most 3x", len(sent), allocated)
	}
}
