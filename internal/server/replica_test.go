package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/replica"
	"shareinsights/internal/resilience"
	"shareinsights/internal/store"
)

// testClock is an injectable, manually advanced clock shared by the
// follower and its breaker, so replication lag is deterministic.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// doFull is do() plus headers — the replica contract lives in Location,
// X-SI-Replica-Lag and Retry-After.
func doFull(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// The 307 must reach the test, not be followed to the leader.
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// newFollowerServer stands up a leader (durable server with state built
// through the API), syncs a follower against it, and wraps the follower
// in a serve process of its own. The follower's source protocol is
// offline from the start: every successful follower run proves it ran
// on replicated state.
func newFollowerServer(t *testing.T, maxLag time.Duration, more ...string) (leader *httptest.Server, fol *replica.Follower, follower *httptest.Server, clk *testClock) {
	t.Helper()
	_, lts, _ := newDurableServer(t, store.NewMemFS(), false)
	for _, name := range append([]string{"sales"}, more...) {
		// Distinct publish names: the catalog holds one object per name.
		flow := strings.Replace(durableFlow, "region_totals", "region_totals_"+name, 1)
		if name == "sales" {
			flow = durableFlow
		}
		if code, body := do(t, "PUT", lts.URL+"/dashboards/"+name, flow); code != 200 {
			t.Fatalf("leader put %s: %d %s", name, code, body)
		}
		if code, body := do(t, "POST", lts.URL+"/dashboards/"+name+"/run", ""); code != 200 {
			t.Fatalf("leader run %s: %d %s", name, code, body)
		}
	}

	fol, _, follower, clk = startFollower(t, lts, maxLag)
	return lts, fol, follower, clk
}

// startFollower syncs a follower against the leader and wraps it in a
// serve process of its own, as newFollowerServer describes.
func startFollower(t *testing.T, lts *httptest.Server, maxLag time.Duration) (*replica.Follower, *Server, *httptest.Server, *testClock) {
	t.Helper()
	clk := newTestClock()
	fol, err := replica.New(replica.Config{
		LeaderURL: lts.URL,
		Now:       clk.Now,
		Retry:     resilience.Policy{MaxRetries: 0, BaseDelay: time.Nanosecond},
		Breaker:   resilience.BreakerConfig{FailureThreshold: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	if err := fol.Sync(context.Background()); err != nil {
		t.Fatalf("initial sync: %v", err)
	}

	proto := &switchProtocol{payload: []byte(salesCSV)}
	proto.fail.Store(true)
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{})
	if err := p.Connectors.RegisterProtocol("switch", proto); err != nil {
		t.Fatal(err)
	}
	fs := New(p, WithFollower(fol, maxLag))
	fts := httptest.NewServer(fs.Handler())
	t.Cleanup(fts.Close)
	return fol, fs, fts, clk
}

// TestFollowerServesReplicatedReads pins the read side of the replica
// contract: replicated flow files, shared objects and last-good tables
// all serve over the follower's own HTTP API, every response carries the
// lag header, and a run executes locally on replicated state (the
// follower's source is offline — on_error: stale hits the replicated
// cache).
func TestFollowerServesReplicatedReads(t *testing.T) {
	_, _, fts, _ := newFollowerServer(t, 0)

	code, hdr, body := doFull(t, "GET", fts.URL+"/dashboards/sales", "")
	if code != 200 || !strings.Contains(string(body), "sum_by_region") {
		t.Fatalf("replicated flow read: %d %s", code, body)
	}
	if hdr.Get(ReplicaLagHeader) == "" {
		t.Fatalf("missing %s header on follower read", ReplicaLagHeader)
	}
	code, body = do(t, "GET", fts.URL+"/shared", "")
	if code != 200 || !strings.Contains(string(body), "region_totals") {
		t.Fatalf("replicated catalog: %d %s", code, body)
	}
	if code, body = do(t, "POST", fts.URL+"/dashboards/sales/run", ""); code != 200 {
		t.Fatalf("follower run: %d %s", code, body)
	}
	code, body = do(t, "GET", fts.URL+"/dashboards/sales/health", "")
	if code != 200 || !strings.Contains(string(body), `"stale"`) {
		t.Fatalf("follower run should degrade to replicated last-good: %d %s", code, body)
	}
	code, body = do(t, "GET", fts.URL+"/dashboards/sales/ds/by_region", "")
	if code != 200 || !strings.Contains(string(body), "east") {
		t.Fatalf("follower endpoint data: %d %s", code, body)
	}

	// Ops page carries the replication panel.
	code, body = do(t, "GET", fts.URL+"/dashboards/sales/ops", "")
	if code != 200 || !strings.Contains(string(body), "replication") ||
		!strings.Contains(string(body), "applied_seq") {
		t.Fatalf("ops replication panel: %d %s", code, body)
	}
}

// TestFollowerRedirectsWrites pins the write side: the routes declared
// as writes answer 307 with a Location pointing at the leader, and
// nothing is applied locally. (A method no route takes, such as DELETE,
// is the mux's 405 on a follower exactly as on a leader.)
func TestFollowerRedirectsWrites(t *testing.T) {
	lts, _, fts, _ := newFollowerServer(t, 0)

	for _, tc := range []struct{ method, path string }{
		{"PUT", "/dashboards/sales"},
		{"PUT", "/dashboards/sales/data/sales.csv"},
		{"POST", "/dashboards/sales/branches/dev"},
	} {
		code, hdr, body := doFull(t, tc.method, fts.URL+tc.path, durableFlow)
		if code != 307 {
			t.Fatalf("%s %s on follower: got %d %s, want 307", tc.method, tc.path, code, body)
		}
		if loc := hdr.Get("Location"); loc != lts.URL+tc.path {
			t.Fatalf("%s %s Location = %q, want %q", tc.method, tc.path, loc, lts.URL+tc.path)
		}
	}
	// The replicated branch list is untouched.
	code, body := do(t, "GET", fts.URL+"/dashboards/sales/branches", "")
	if code != 200 || strings.Contains(string(body), `"dev"`) {
		t.Fatalf("redirected branch leaked into replica: %d %s", code, body)
	}
}

// TestFollowerRoutesByDeclarationNotName: how a follower treats a
// request is a property of the route it matched, never of the text of
// its path. Dashboards named like route segments — merge, fork, branches,
// ops — run and select locally (POST run/select are not writes) and fall
// under -max-lag like any other dashboard.
func TestFollowerRoutesByDeclarationNotName(t *testing.T) {
	names := []string{"merge", "fork", "branches", "ops"}
	_, _, fts, clk := newFollowerServer(t, 2*time.Second, names...)
	for _, name := range names {
		base := fts.URL + "/dashboards/" + name
		code, hdr, body := doFull(t, "POST", base+"/run", "")
		if code != 200 || hdr.Get(ReplicaLagHeader) == "" {
			t.Fatalf("POST /dashboards/%s/run on follower = %d %s (lag header %q), want a local run", name, code, body, hdr.Get(ReplicaLagHeader))
		}
		// No widget named w: 400 from the local handler, not a 307.
		if code, _, body := doFull(t, "POST", base+"/select/w", `{"values":["east"]}`); code != 400 {
			t.Fatalf("POST /dashboards/%s/select/w on follower = %d %s, want the local handler's 400", name, code, body)
		}
	}
	clk.Advance(5 * time.Second)
	for _, name := range names {
		code, hdr, body := doFull(t, "GET", fts.URL+"/dashboards/"+name, "")
		if code != 503 || hdr.Get("Retry-After") == "" {
			t.Errorf("GET /dashboards/%s past max-lag = %d %s, want 503 + Retry-After", name, code, body)
		}
	}
	// The ops page of any dashboard — including the one named ops — stays up.
	if code, _, body := doFull(t, "GET", fts.URL+"/dashboards/ops/ops", ""); code != 200 {
		t.Errorf("GET /dashboards/ops/ops past max-lag = %d %s, want 200", code, body)
	}
}

// TestFollowerBoundedStaleness pins -max-lag: once lag exceeds the
// bound, data reads refuse with 503 + Retry-After while /health,
// /metrics and the ops page stay reachable and report degraded.
func TestFollowerBoundedStaleness(t *testing.T) {
	_, fol, fts, clk := newFollowerServer(t, 2*time.Second)

	// Fresh: within the bound. The run also gives the ops page a live
	// dashboard to build on.
	if code, _, _ := doFull(t, "GET", fts.URL+"/dashboards/sales", ""); code != 200 {
		t.Fatalf("fresh read: %d", code)
	}
	if code, _, body := doFull(t, "POST", fts.URL+"/dashboards/sales/run", ""); code != 200 {
		t.Fatalf("fresh run: %d %s", code, body)
	}

	clk.Advance(5 * time.Second)
	code, hdr, body := doFull(t, "GET", fts.URL+"/dashboards/sales", "")
	if code != 503 {
		t.Fatalf("stale read: got %d %s, want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if hdr.Get(ReplicaLagHeader) == "" {
		t.Fatal("503 without lag header")
	}
	for _, path := range []string{"/health", "/metrics", "/dashboards/sales/ops"} {
		if code, _, _ := doFull(t, "GET", fts.URL+path, ""); code != 200 {
			t.Fatalf("%s must stay reachable past max-lag: %d", path, code)
		}
	}

	var h struct {
		Status      string `json:"status"`
		Durability  string `json:"durability"`
		Replication struct {
			Leader     string  `json:"leader"`
			LagSeconds float64 `json:"lag_seconds"`
			AppliedSeq uint64  `json:"applied_seq"`
			Breaker    string  `json:"breaker"`
			Components map[string]struct {
				Cursor struct {
					Gen    uint64 `json:"gen"`
					Offset int64  `json:"offset"`
				} `json:"cursor"`
			} `json:"components"`
		} `json:"replication"`
	}
	_, _, body = doFull(t, "GET", fts.URL+"/health", "")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Durability != "replica" || h.Status != "degraded" {
		t.Fatalf("stale follower health = %s", body)
	}
	if h.Replication.LagSeconds < 5 || h.Replication.AppliedSeq == 0 {
		t.Fatalf("replication status = %s", body)
	}
	if cs, ok := h.Replication.Components["vcs"]; !ok || cs.Cursor.Offset == 0 {
		t.Fatalf("per-component WAL cursor missing from health: %s", body)
	}

	// Catching up again clears the refusal.
	if err := fol.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := doFull(t, "GET", fts.URL+"/dashboards/sales", ""); code != 200 {
		t.Fatalf("read after resync: %d", code)
	}
}
