package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/resilience"
)

// newAdmissionServer builds a server with the admission gate and the
// shared result cache enabled.
func newAdmissionServer(t *testing.T, cfg admission.Config) (*Server, *httptest.Server) {
	t.Helper()
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"sales.csv": []byte(salesCSV)},
	})
	s := New(p, WithAdmission(cfg), WithResultCache(16))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func putAndRun(t *testing.T, ts *httptest.Server, name, flow string) {
	t.Helper()
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/"+name, flow); code != 200 {
		t.Fatalf("put %s: %d %s", name, code, body)
	}
	if code, body := do(t, http.MethodPost, ts.URL+"/dashboards/"+name+"/run", ""); code != 200 {
		t.Fatalf("run %s: %d %s", name, code, body)
	}
}

// doTenant issues a request with a tenant header and returns the
// response (caller closes the body).
func doTenant(t *testing.T, method, url, tenant string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdmissionSheds429 saturates the gate and asserts the shed
// contract: 429 status, Retry-After header, a "shed" flight-recorder
// entry — and, critically, zero effect on the connector circuit
// breakers (a shed is pressure, not a platform failure).
func TestAdmissionSheds429(t *testing.T) {
	s, ts := newAdmissionServer(t, admission.Config{MaxInFlight: 1, QueueDepth: 0})
	putAndRun(t, ts, "sales", serverFlow)

	// Hold the only slot so every HTTP request sheds queue_full.
	release, err := s.Gate().Acquire(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/sales/run", "")
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated run = %d %s, want 429", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 missing Retry-After")
		}
	}
	release()

	// Shed requests never trip circuit breakers: they are rejected
	// before any connector work, so every breaker stays closed.
	for host, st := range s.platform.Connectors.Breakers().States() {
		if st != resilience.Closed {
			t.Errorf("breaker for %s = %v after sheds, want closed", host, st)
		}
	}
	// The gate recovered: the next request is admitted.
	if code, body := do(t, http.MethodPost, ts.URL+"/dashboards/sales/run", ""); code != 200 {
		t.Fatalf("post-release run = %d %s", code, body)
	}
	// Sheds land in the flight recorder alongside runs.
	found := false
	for _, run := range s.platform.History.Runs("sales", 0) {
		if run.Status == "shed" {
			found = true
		}
	}
	if !found {
		t.Error("no shed entry in the flight recorder")
	}
}

// TestRunBurstShedsOrCollapses is the serving contract under a burst of
// concurrent runs across dashboards and tenants, held by outcome rather
// than by timing. With every slot pinned the whole burst sheds (429 +
// Retry-After, never a 5xx). With the slots free every request lands or
// sheds, and each dashboard's flow runs once: one miss, every other 200
// a hit or a follower collapsed onto that run.
func TestRunBurstShedsOrCollapses(t *testing.T) {
	const slots, burst, tenants = 2, 36, 3
	s, ts := newAdmissionServer(t, admission.Config{
		MaxInFlight: slots, QueueDepth: 8, QueueTimeout: 50 * time.Millisecond,
	})
	dashes := []string{"sales_a", "sales_b"}
	for _, name := range dashes {
		if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/"+name, serverFlow); code != 200 {
			t.Fatalf("put %s: %d %s", name, code, body)
		}
	}
	type result struct {
		dash       string
		code       int
		cache      string
		retryAfter string
		err        error
	}
	fire := func() []result {
		out := make([]result, burst)
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &out[i]
				r.dash = dashes[i%len(dashes)]
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/dashboards/"+r.dash+"/run", nil)
				if err != nil {
					r.err = err
					return
				}
				req.Header.Set(TenantHeader, fmt.Sprintf("tenant-%d", i%tenants))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					r.err = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				r.code = resp.StatusCode
				r.cache = resp.Header.Get(ResultCacheHeader)
				r.retryAfter = resp.Header.Get("Retry-After")
			}()
		}
		wg.Wait()
		for _, r := range out {
			if r.err != nil {
				t.Fatalf("run %s: %v", r.dash, r.err)
			}
		}
		return out
	}

	var releases []func()
	for i := 0; i < slots; i++ {
		release, err := s.Gate().Acquire(context.Background(), "pin")
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	for _, r := range fire() {
		if r.code != http.StatusTooManyRequests || r.retryAfter == "" {
			t.Errorf("pinned run %s = %d (Retry-After %q), want 429 with Retry-After", r.dash, r.code, r.retryAfter)
		}
	}
	for _, release := range releases {
		release()
	}

	misses := map[string]int{}
	landed := map[string]bool{}
	for _, r := range fire() {
		switch r.code {
		case http.StatusOK:
			landed[r.dash] = true
			switch r.cache {
			case admission.OutcomeMiss:
				misses[r.dash]++
			case admission.OutcomeHit, admission.OutcomeFollow:
			default:
				t.Errorf("run %s: 200 with cache outcome %q", r.dash, r.cache)
			}
		case http.StatusTooManyRequests:
		default:
			t.Errorf("released run %s = %d, want 200 or 429", r.dash, r.code)
		}
	}
	if len(landed) == 0 {
		t.Fatal("no run landed after the slots were released")
	}
	for dash := range landed {
		if misses[dash] != 1 {
			t.Errorf("%s: %d misses among its 200s, want exactly 1 (singleflight runs the flow once)", dash, misses[dash])
		}
	}
}

// TestQueuedRequestCanceledReleasesSlot is the client-disconnect
// contract over HTTP: a queued run whose client goes away must leave
// the queue, and the server must keep serving afterwards.
func TestQueuedRequestCanceledReleasesSlot(t *testing.T) {
	s, ts := newAdmissionServer(t, admission.Config{MaxInFlight: 1, QueueDepth: 4})
	putAndRun(t, ts, "sales", serverFlow)

	release, err := s.Gate().Acquire(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/dashboards/sales/run", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitForCond(t, func() bool { return s.Gate().Stats().Queued == 1 })
	cancel()
	<-done
	waitForCond(t, func() bool { return s.Gate().Stats().Queued == 0 })

	release()
	if code, body := do(t, http.MethodPost, ts.URL+"/dashboards/sales/run", ""); code != 200 {
		t.Fatalf("run after canceled waiter = %d %s", code, body)
	}
	if st := s.Gate().Stats(); st.InFlight != 0 {
		t.Fatalf("slot leaked: %+v", st)
	}
}

// TestTenantIsolationHTTP is the acceptance criterion at the HTTP
// layer: a hot tenant burning through its rate limit gets 429s while a
// well-behaved tenant keeps getting 200s from the same server.
func TestTenantIsolationHTTP(t *testing.T) {
	_, ts := newAdmissionServer(t, admission.Config{
		MaxInFlight: 8,
		QueueDepth:  8,
		TenantRPS:   0.001, // one token then starve
		TenantBurst: 2,
	})
	putAndRun(t, ts, "sales", serverFlow) // spends one default-tenant token

	hot429 := 0
	for i := 0; i < 10; i++ {
		resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/sales/run", "hot")
		readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			hot429++
		}
	}
	if hot429 < 8 {
		t.Fatalf("hot tenant got only %d/10 429s", hot429)
	}
	// The polite tenant has its own bucket: both burst tokens work.
	for i := 0; i < 2; i++ {
		resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/sales/run", "polite")
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("polite tenant request %d = %d %s", i, resp.StatusCode, body)
		}
	}
}

// TestResultCacheOverHTTP covers the cache lifecycle through the API:
// miss on first run, hit on the second, invalidation on save and on
// upload.
func TestResultCacheOverHTTP(t *testing.T) {
	_, ts := newAdmissionServer(t, admission.Config{})
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/sales", serverFlow); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	run := func() (int, string) {
		resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/sales/run", "")
		readAll(t, resp)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get(ResultCacheHeader)
	}
	if code, outcome := run(); code != 200 || outcome != admission.OutcomeMiss {
		t.Fatalf("first run = %d, cache %q; want 200 miss", code, outcome)
	}
	if code, outcome := run(); code != 200 || outcome != admission.OutcomeHit {
		t.Fatalf("second run = %d, cache %q; want 200 hit", code, outcome)
	}
	// A save rotates the key and drops the entry.
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/sales", serverFlow); code != 200 {
		t.Fatalf("re-put: %d %s", code, body)
	}
	if code, outcome := run(); code != 200 || outcome != admission.OutcomeMiss {
		t.Fatalf("run after save = %d, cache %q; want miss", code, outcome)
	}
	if _, outcome := run(); outcome != admission.OutcomeHit {
		t.Fatalf("re-run = cache %q, want hit", outcome)
	}
	// An upload invalidates too.
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/sales/data/extra.csv", "x\n1\n"); code != 200 {
		t.Fatalf("upload: %d %s", code, body)
	}
	if _, outcome := run(); outcome != admission.OutcomeMiss {
		t.Fatalf("run after upload = cache %q, want miss", outcome)
	}
}

// TestResultCachePublishInvalidation: a consumer dashboard's cached
// result becomes stale the moment its shared input is republished —
// the catalog version inside the cache key rotates, so the next run
// recomputes against the new data.
func TestResultCachePublishInvalidation(t *testing.T) {
	_, ts := newAdmissionServer(t, admission.Config{})
	producer := serverFlow + "\nD.by_region:\n  publish: region_totals\n"
	putAndRun(t, ts, "producer", producer)

	consumers := map[string]string{
		// A flow reads the shared object.
		"consumer": `
F:
  +D.report: D.region_totals | T.top

T:
  top:
    type: topn
    orderby_column: [total DESC]
    limit: 1
`,
		// Only a widget reads it: the parser declares no data object.
		"widget_consumer": `
W:
  g:
    type: Grid
    source: D.region_totals

L:
  rows:
    - [span12: W.g]
`,
	}
	for name, flow := range consumers {
		if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/"+name, flow); code != 200 {
			t.Fatalf("put %s: %d %s", name, code, body)
		}
	}
	run := func(name string) string {
		resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/"+name+"/run", "")
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s run: %d %s", name, resp.StatusCode, body)
		}
		return resp.Header.Get(ResultCacheHeader)
	}
	for name := range consumers {
		if outcome := run(name); outcome != admission.OutcomeMiss {
			t.Fatalf("first %s run = %q, want miss", name, outcome)
		}
		if outcome := run(name); outcome != admission.OutcomeHit {
			t.Fatalf("second %s run = %q, want hit", name, outcome)
		}
	}
	// Republish: save the producer (rotating its own key) and re-run it
	// so the catalog object's version bumps.
	putAndRun(t, ts, "producer", producer)
	for name := range consumers {
		if outcome := run(name); outcome != admission.OutcomeMiss {
			t.Fatalf("%s run after republish = %q, want miss (stale shared input)", name, outcome)
		}
	}
}

// TestCacheOffOptsOut: a flow with a `cache: off` data object never
// touches the result cache.
func TestCacheOffOptsOut(t *testing.T) {
	_, ts := newAdmissionServer(t, admission.Config{})
	flow := serverFlow + "\nD.sales:\n  cache: off\n"
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/sales", flow); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	for i := 0; i < 2; i++ {
		resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/sales/run", "")
		readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("run %d: %d", i, resp.StatusCode)
		}
		if h := resp.Header.Get(ResultCacheHeader); h != "" {
			t.Fatalf("cache-off run %d reported outcome %q", i, h)
		}
	}
}

// TestOpsPanelsIncludeAdmission: the ops meta-dashboard grows the
// admission and result-cache panels when those subsystems are on.
func TestOpsPanelsIncludeAdmission(t *testing.T) {
	_, ts := newAdmissionServer(t, admission.Config{MaxInFlight: 4, QueueDepth: 4})
	putAndRun(t, ts, "sales", serverFlow)
	code, body := do(t, http.MethodGet, ts.URL+"/dashboards/sales/ops", "")
	if code != 200 {
		t.Fatalf("ops: %d %s", code, body)
	}
	for _, want := range []string{"admission", "result_cache", "max_inflight", "hits"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("ops page missing %q", want)
		}
	}
}

// TestAdmissionMetricsExposed: the si_admission_* and si_result_cache_*
// series land on GET /metrics.
func TestAdmissionMetricsExposed(t *testing.T) {
	s, ts := newAdmissionServer(t, admission.Config{MaxInFlight: 1, QueueDepth: 0})
	putAndRun(t, ts, "sales", serverFlow)
	release, err := s.Gate().Acquire(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	resp := doTenant(t, http.MethodPost, ts.URL+"/dashboards/sales/run", "")
	readAll(t, resp)
	resp.Body.Close()
	release()

	code, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"si_admission_admitted_total",
		`si_admission_shed_total{reason="queue_full"}`,
		"si_result_cache_misses_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
