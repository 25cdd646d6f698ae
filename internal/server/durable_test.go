package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
)

// durableFlow is staleFlow plus a publish: — it exercises all three
// persisted components: the flow-file repo (PUT), the shared catalog
// (publish on run) and the last-good source cache (on_error: stale).
var durableFlow = strings.Replace(staleFlow, "endpoint: true", "endpoint: true\n    publish: region_totals", 1)

func newDurableServer(t *testing.T, fs store.FS, failSource bool) (*Server, *httptest.Server, *persist.Store) {
	t.Helper()
	st, err := persist.Open(fs, persist.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	proto := &switchProtocol{payload: []byte(salesCSV)}
	proto.fail.Store(failSource)
	p := dashboard.NewPlatform()
	p.Metrics = st.Metrics()
	p.Connectors = connector.NewRegistry(connector.Options{})
	if err := p.Connectors.RegisterProtocol("switch", proto); err != nil {
		t.Fatal(err)
	}
	s := New(p, WithStore(st))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, st
}

// TestServerRestartPreservesState is the acceptance round trip: commits,
// branches, published objects and last-good tables made through the REST
// API survive a full server restart over the same data directory — and
// on_error: stale serves recovered data even when the source never comes
// back up in the second life.
func TestServerRestartPreservesState(t *testing.T) {
	fs := store.NewMemFS()

	// First life: build state through the API.
	_, ts, st := newDurableServer(t, fs, false)
	if code, body := do(t, "PUT", ts.URL+"/dashboards/sales", durableFlow); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	if code, body := do(t, "POST", ts.URL+"/dashboards/sales/run", ""); code != 200 {
		t.Fatalf("run: %d %s", code, body)
	}
	if code, body := do(t, "POST", ts.URL+"/dashboards/sales/branches/dev", ""); code != 200 {
		t.Fatalf("branch: %d %s", code, body)
	}
	if code, body := do(t, "PUT", ts.URL+"/dashboards/sales/branches/dev", durableFlow); code != 200 {
		t.Fatalf("commit to dev: %d %s", code, body)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same FS, fresh process, source down from the start.
	_, ts2, _ := newDurableServer(t, fs, true)

	// VCS: the dashboard, its content and its branches are back.
	code, body := do(t, "GET", ts2.URL+"/dashboards/sales", "")
	if code != 200 || strings.TrimSpace(string(body)) == "" {
		t.Fatalf("recovered flow file: %d %s", code, body)
	}
	code, body = do(t, "GET", ts2.URL+"/dashboards/sales/branches", "")
	if code != 200 || !strings.Contains(string(body), `"dev"`) {
		t.Fatalf("recovered branches: %d %s", code, body)
	}
	code, body = do(t, "GET", ts2.URL+"/dashboards/sales/log", "")
	if code != 200 || !strings.Contains(string(body), "save sales") {
		t.Fatalf("recovered commit log: %d %s", code, body)
	}

	// Catalog: the published object is resolvable before any run.
	code, body = do(t, "GET", ts2.URL+"/shared", "")
	if code != 200 || !strings.Contains(string(body), "region_totals") {
		t.Fatalf("recovered shared catalog: %d %s", code, body)
	}

	// Cache: on_error: stale works across the restart — the source is
	// offline, yet the run completes on the recovered last-good table.
	if code, body := do(t, "POST", ts2.URL+"/dashboards/sales/run", ""); code != 200 {
		t.Fatalf("degraded run after restart: %d %s", code, body)
	}
	code, body = do(t, "GET", ts2.URL+"/dashboards/sales/health", "")
	if code != 200 || !strings.Contains(string(body), `"stale"`) {
		t.Fatalf("stale fallback after restart: %d %s", code, body)
	}
	code, body = do(t, "GET", ts2.URL+"/dashboards/sales/ds/by_region", "")
	if code != 200 || !strings.Contains(string(body), "east") {
		t.Fatalf("endpoint data after restart: %d %s", code, body)
	}

	// Health surface: recovery outcome per component.
	code, body = do(t, "GET", ts2.URL+"/health", "")
	if code != 200 {
		t.Fatalf("health: %d %s", code, body)
	}
	var h struct {
		Status     string `json:"status"`
		Durability string `json:"durability"`
		Store      []struct {
			Component string `json:"component"`
			Records   int    `json:"records_replayed"`
			Gen       uint64 `json:"generation"`
			Committed int64  `json:"committed_offset"`
		} `json:"store"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Durability != "durable" || len(h.Store) != 4 {
		t.Fatalf("health = %s", body)
	}
	replayed, shipped := 0, 0
	for _, cs := range h.Store {
		replayed += cs.Records
		// The shipping cursor (docs/REPLICATION.md): committed offset is
		// at least the WAL magic on every component.
		if cs.Committed > 8 {
			shipped++
		}
	}
	if replayed == 0 {
		t.Fatalf("no records replayed on recovery: %s", body)
	}
	if shipped == 0 {
		t.Fatalf("no component exposes a shipping cursor: %s", body)
	}

	// Metrics: the si_store_* series are exposed.
	code, body = do(t, "GET", ts2.URL+"/metrics", "")
	if code != 200 || !strings.Contains(string(body), "si_store_appends_total") ||
		!strings.Contains(string(body), "si_store_recoveries_total") {
		t.Fatalf("si_store_* metrics missing: %d", code)
	}
}

// uploadFlow is staleFlow over an uploaded file, with the source's
// on_error set to mode.
func uploadFlow(mode string) string {
	return strings.NewReplacer("source: sales.csv\n  protocol: switch", "source: data:sales.csv",
		"on_error: stale", "on_error: "+mode).Replace(staleFlow)
}

// TestRunJournalsOnlyStaleSources pins what a save-run cycle writes to
// the cache component: nothing for a source that does not declare
// on_error: stale, since only a stale source ever serves its last-good
// table, and one record with one fsync per run for one that does.
func TestRunJournalsOnlyStaleSources(t *testing.T) {
	s, _, st := newDurableServer(t, store.NewMemFS(), false)
	s.UploadData("sales", "sales.csv", []byte(salesCSV))
	m := st.Metrics()
	appends := m.CounterVec("si_store_appends_total", "", "component").With("cache")
	fsyncs := m.CounterVec("si_store_fsyncs_total", "", "component").With("cache")
	// Opening the component synced its new WAL and directory.
	a0, f0 := appends.Value(), fsyncs.Value()
	written := func() (int64, int64) { return appends.Value() - a0, fsyncs.Value() - f0 }
	cycle := func(mode string) {
		t.Helper()
		if _, err := s.SaveDashboard("sales", "tester", []byte(uploadFlow(mode))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run("sales"); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		cycle("fail")
	}
	if a, f := written(); a != 0 || f != 0 {
		t.Fatalf("three save-run cycles of a fail source wrote %d cache records and %d fsyncs, want 0", a, f)
	}
	for i := 1; i <= 3; i++ {
		cycle("stale")
		if a, f := written(); a != int64(i) || f != int64(i) {
			t.Fatalf("after %d runs as stale the cache has %d records and %d fsyncs, want %d of each", i, a, f, i)
		}
	}
}

// durableRerunAllocs is what one save + run cycle of uploadFlow("fail")
// allocates on a durable server (go1.24, linux/amd64): the save's parse
// and commit record, the compile of the new tip, and a run whose every
// produced node is a cache hit, so that its source goes undecoded.
// Decoding the source on every run, as runs did while a source was keyed
// by its decoded table, allocated 224; journaling its last-good table
// too, as runs did for every source before only stale sources kept one,
// 235.
const durableRerunAllocs = 211

// TestDurableRerunAllocs pins a durable save + run cycle to journaling
// only its commit and its run: at most durableRerunAllocs + 2 %.
func TestDurableRerunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, _, _ := newDurableServer(t, store.NewMemFS(), false)
	s.UploadData("pin", "sales.csv", []byte(salesCSV))
	flow := []byte(uploadFlow("fail"))
	cycle := func() {
		if _, err := s.SaveDashboard("pin", "tester", flow); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run("pin"); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n > durableRerunAllocs*1.02 {
		t.Errorf("a durable save + run cycle allocates %.0f objects, want at most %d + 2 %%", n, durableRerunAllocs)
	}
}

// TestInMemoryHealthSurface pins the default: no store attached means
// durability reports in-memory and no component table.
func TestInMemoryHealthSurface(t *testing.T) {
	_, _, ts := newFaultServer(t)
	code, body := do(t, "GET", ts.URL+"/health", "")
	if code != 200 || !strings.Contains(string(body), `"durability":"in-memory"`) {
		t.Fatalf("health: %d %s", code, body)
	}
}
