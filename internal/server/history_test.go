package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"shareinsights/internal/dashboard"
)

// TestHistoryRoute drives two runs and checks the flight-recorder
// surface: runs newest first, stage profiles for the current flow
// revision, and the ?baseline=1 comparison of the second run against
// the first.
func TestHistoryRoute(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/dashboards/sales_dash"

	// Before any run: 404.
	if code, _ := do(t, http.MethodGet, base+"/history", ""); code != 404 {
		t.Fatalf("history before runs = %d, want 404", code)
	}

	if code, body := do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	for i := 0; i < 2; i++ {
		if code, body := do(t, http.MethodPost, base+"/run", ""); code != 200 {
			t.Fatalf("run %d = %d: %s", i, code, body)
		}
		// Start the incremental cache over so the second run executes its
		// stages instead of reporting an all-cache-hit run (a fully
		// cached run legitimately has no stage records to compare).
		s.platform.Cache = dashboard.NewResultCache()
	}

	code, body := do(t, http.MethodGet, base+"/history?baseline=1", "")
	if code != 200 {
		t.Fatalf("history = %d: %s", code, body)
	}
	var resp struct {
		Dashboard string `json:"dashboard"`
		FlowHash  string `json:"flow_hash"`
		Runs      []struct {
			Seq    uint64 `json:"seq"`
			Status string `json:"status"`
			Stages []struct {
				Output     string `json:"output"`
				DurationUS int64  `json:"duration_us"`
			} `json:"stages"`
		} `json:"runs"`
		Profiles []struct {
			Output string `json:"output"`
			Count  int64  `json:"count"`
		} `json:"profiles"`
		Baseline []struct {
			Output     string  `json:"output"`
			BaselineUS int64   `json:"baseline_us"`
			DeltaPct   float64 `json:"delta_pct"`
		} `json:"baseline"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if resp.Dashboard != "sales_dash" || resp.FlowHash == "" {
		t.Fatalf("header = %+v", resp)
	}
	if len(resp.Runs) != 2 || resp.Runs[0].Seq <= resp.Runs[1].Seq {
		t.Fatalf("runs not newest-first: %+v", resp.Runs)
	}
	if resp.Runs[0].Status != "ok" || len(resp.Runs[0].Stages) == 0 {
		t.Fatalf("run detail = %+v", resp.Runs[0])
	}
	if len(resp.Profiles) == 0 || resp.Profiles[0].Count != 2 {
		t.Fatalf("profiles = %+v", resp.Profiles)
	}
	// The second run compared against the first run's baseline.
	if len(resp.Baseline) == 0 || resp.Baseline[0].BaselineUS <= 0 {
		t.Fatalf("baseline = %+v", resp.Baseline)
	}

	// ?limit truncates, bad limit rejects.
	code, body = do(t, http.MethodGet, base+"/history?limit=1", "")
	if code != 200 || !strings.Contains(string(body), `"seq"`) {
		t.Fatalf("limit=1 = %d: %s", code, body)
	}
	var lim struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(body, &lim); err != nil || len(lim.Runs) != 1 {
		t.Fatalf("limit=1 returned %d runs: %v", len(lim.Runs), err)
	}
	if code, _ := do(t, http.MethodGet, base+"/history?limit=x", ""); code != 400 {
		t.Fatalf("limit=x = %d, want 400", code)
	}

	// The per-stage labelled metrics from the runs are exposed.
	code, body = do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != 200 || !strings.Contains(string(body), "si_stage_duration_seconds") ||
		!strings.Contains(string(body), "si_stage_rows_total") {
		t.Fatalf("si_stage_* metrics missing: %d", code)
	}
}
