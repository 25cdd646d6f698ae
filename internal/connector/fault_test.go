package connector

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/resilience"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// fastRetry is a test policy that never sleeps on the clock.
func fastRetry(retries int) resilience.Policy {
	return resilience.Policy{
		MaxRetries: retries,
		Sleep:      func(context.Context, time.Duration) error { return nil },
	}
}

// chaosRegistry builds a registry whose "chaos" protocol wraps mem with
// the given fault config — registered through the ordinary extension
// API, like any user connector.
func chaosRegistry(t *testing.T, cfg FaultConfig, retries int) (*Registry, *FaultProtocol) {
	t.Helper()
	r := NewRegistry(Options{
		Mem:   map[string][]byte{"t.csv": []byte("east,10\nwest,20\n")},
		Retry: fastRetry(retries),
	})
	fp := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.csv": []byte("east,10\nwest,20\n")}}, cfg)
	if err := r.RegisterProtocol("chaos", fp); err != nil {
		t.Fatal(err)
	}
	return r, fp
}

func chaosDef(t *testing.T) *flowfile.DataDef {
	return def(t, "t", map[string]string{"source": "t.csv", "protocol": "chaos", "format": "csv"})
}

func TestFlakySourceRecoversAfterRetries(t *testing.T) {
	r, fp := chaosRegistry(t, FaultConfig{FailFirst: 2}, 3)
	tb, stats, err := r.LoadContext(context.Background(), chaosDef(t), schema.MustFromNames("region", "amount"), nil, 0)
	if err != nil {
		t.Fatalf("flaky source did not recover: %v", err)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tb.Len())
	}
	if stats.Attempts != 3 || fp.Calls() != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3 (2 failures + success)", stats.Attempts, fp.Calls())
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	r, fp := chaosRegistry(t, FaultConfig{FailEvery: 1}, 2)
	_, stats, err := r.LoadContext(context.Background(), chaosDef(t), schema.MustFromNames("region", "amount"), nil, 0)
	if err == nil {
		t.Fatal("always-failing source succeeded")
	}
	if stats.Attempts != 3 || fp.Calls() != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3", stats.Attempts, fp.Calls())
	}
}

func TestPerSourceRetriesProperty(t *testing.T) {
	r, fp := chaosRegistry(t, FaultConfig{FailEvery: 1}, 0)
	d := chaosDef(t)
	d.SetProp("retries", "4")
	_, stats, err := r.LoadContext(context.Background(), d, schema.MustFromNames("region", "amount"), nil, 0)
	if err == nil {
		t.Fatal("always-failing source succeeded")
	}
	if stats.Attempts != 5 || fp.Calls() != 5 {
		t.Fatalf("attempts = %d, calls = %d, want 5 (retries: 4 property)", stats.Attempts, fp.Calls())
	}
}

func TestBreakerOpensThenHalfOpenProbeCloses(t *testing.T) {
	clock := time.Unix(0, 0)
	r := NewRegistry(Options{
		Retry:   fastRetry(0),
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, OpenFor: 10 * time.Second, Now: func() time.Time { return clock }},
	})
	fp := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.csv": []byte("east,10\n")}}, FaultConfig{FailFirst: 3})
	if err := r.RegisterProtocol("chaos", fp); err != nil {
		t.Fatal(err)
	}
	s := schema.MustFromNames("region", "amount")
	d := chaosDef(t)
	// Three failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, _, err := r.LoadContext(context.Background(), d, s, nil, 0); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	calls := fp.Calls()
	// While open, calls fail fast without touching the source.
	if _, _, err := r.LoadContext(context.Background(), d, s, nil, 0); err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("open breaker let the call through: %v", err)
	}
	if fp.Calls() != calls {
		t.Fatal("open breaker still touched the source")
	}
	// Cooldown elapses: the half-open probe reaches the (now healthy)
	// source and closes the breaker.
	clock = clock.Add(11 * time.Second)
	if _, _, err := r.LoadContext(context.Background(), d, s, nil, 0); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := r.Breakers().For("chaos\x00t.csv").State(); st != resilience.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	if _, _, err := r.LoadContext(context.Background(), d, s, nil, 0); err != nil {
		t.Fatalf("closed breaker refused a call: %v", err)
	}
}

func TestBreakerTransitionMetrics(t *testing.T) {
	r, _ := chaosRegistry(t, FaultConfig{FailEvery: 1}, 0)
	m := obs.NewRegistry()
	r.SetMetrics(m)
	s := schema.MustFromNames("region", "amount")
	for i := 0; i < 6; i++ {
		r.LoadContext(context.Background(), chaosDef(t), s, nil, 0)
	}
	var buf strings.Builder
	m.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `si_breaker_transitions_total{protocol="chaos",to="open"} 1`) {
		t.Fatalf("breaker transition not recorded:\n%s", buf.String())
	}
}

func TestRetryMetrics(t *testing.T) {
	r, _ := chaosRegistry(t, FaultConfig{FailFirst: 2}, 3)
	m := obs.NewRegistry()
	r.SetMetrics(m)
	if _, _, err := r.LoadContext(context.Background(), chaosDef(t), schema.MustFromNames("region", "amount"), nil, 0); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	m.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `si_source_retries_total{protocol="chaos"} 2`) {
		t.Fatalf("retries not recorded:\n%s", buf.String())
	}
}

func TestHungSourceHonorsDeadline(t *testing.T) {
	r, _ := chaosRegistry(t, FaultConfig{Hang: true}, 0)
	d := chaosDef(t)
	d.SetProp("timeout", "50ms")
	start := time.Now()
	_, _, err := r.LoadContext(context.Background(), d, schema.MustFromNames("region", "amount"), nil, 0)
	if err == nil {
		t.Fatal("hung source returned data")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung fetch took %v, deadline not honored", elapsed)
	}
}

func TestLegacyFetchAdapterHonorsCancellation(t *testing.T) {
	// A plain Protocol (no FetchContext) that blocks forever: the
	// adapter must abandon it when the context ends.
	r := NewRegistry(Options{Retry: fastRetry(0)})
	if err := r.RegisterProtocol("stuck", stuckProtocol{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	d := def(t, "t", map[string]string{"source": "x", "protocol": "stuck", "format": "csv"})
	start := time.Now()
	_, _, err := r.LoadContext(ctx, d, schema.MustFromNames("a"), nil, 0)
	if err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("legacy adapter did not honor cancellation: err=%v after %v", err, time.Since(start))
	}
}

type stuckProtocol struct{}

func (stuckProtocol) Fetch(*flowfile.DataDef) ([]byte, error) {
	select {} // block forever
}

func TestShortReadInjection(t *testing.T) {
	// Short-read an sbin payload: the checksummed format reliably
	// detects the truncation as corruption.
	s := schema.MustFromNames("region", "amount")
	tb := table.New(s)
	tb.AppendValues(value.NewString("east"), value.NewInt(10))
	payload := EncodeSBIN(tb)
	r := NewRegistry(Options{Retry: fastRetry(0)})
	fp := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.sbin": payload}}, FaultConfig{ShortRead: len(payload) / 2})
	if err := r.RegisterProtocol("chaos", fp); err != nil {
		t.Fatal(err)
	}
	d := def(t, "t", map[string]string{"source": "t.sbin", "protocol": "chaos", "format": "sbin"})
	_, _, err := r.LoadContext(context.Background(), d, s, nil, 0)
	if err == nil {
		t.Fatal("short read decoded cleanly; want a decode error")
	}
}

func TestFaultFormatFailsDecodes(t *testing.T) {
	r := NewRegistry(Options{Mem: map[string][]byte{"t.csv": []byte("east,10\n")}})
	ff := NewFaultFormat(&csvFormat{}, FaultConfig{FailFirst: 1})
	if err := r.RegisterFormat("chaoscsv", ff); err != nil {
		t.Fatal(err)
	}
	d := def(t, "t", map[string]string{"source": "mem:t.csv", "format": "chaoscsv"})
	s := schema.MustFromNames("region", "amount")
	if _, err := load(r, d, s); err == nil {
		t.Fatal("first decode should fail")
	}
	if _, err := load(r, d, s); err != nil {
		t.Fatalf("second decode should pass: %v", err)
	}
}

// --- HTTP hardening ---------------------------------------------------

func TestHTTPNon2xxIsErrorWithSnippet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "database exploded", http.StatusInternalServerError)
	}))
	defer srv.Close()
	r := NewRegistry(Options{Retry: fastRetry(0)})
	d := def(t, "t", map[string]string{"source": srv.URL, "format": "csv"})
	_, _, err := r.LoadContext(context.Background(), d, schema.MustFromNames("a"), nil, 0)
	if err == nil {
		t.Fatal("500 response decoded cleanly")
	}
	if !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "database exploded") {
		t.Fatalf("error misses status/body snippet: %v", err)
	}
}

func TestHTTP4xxIsPermanent(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such dataset", http.StatusNotFound)
	}))
	defer srv.Close()
	r := NewRegistry(Options{Retry: fastRetry(5)})
	d := def(t, "t", map[string]string{"source": srv.URL, "format": "csv"})
	_, _, err := r.LoadContext(context.Background(), d, schema.MustFromNames("a"), nil, 0)
	if err == nil {
		t.Fatal("404 succeeded")
	}
	if hits.Load() != 1 {
		t.Fatalf("404 retried %d times; client errors are permanent", hits.Load())
	}
}

func TestHTTPRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "try later", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "east,10\n")
	}))
	defer srv.Close()
	var delays []time.Duration
	r := NewRegistry(Options{Retry: resilience.Policy{
		MaxRetries: 2,
		Sleep: func(_ context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}})
	d := def(t, "t", map[string]string{"source": srv.URL, "format": "csv"})
	tb, _, err := r.LoadContext(context.Background(), d, schema.MustFromNames("region", "amount"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("rows = %d", tb.Len())
	}
	if len(delays) != 1 || delays[0] < 7*time.Second {
		t.Fatalf("Retry-After not honored as minimum backoff: %v", delays)
	}
}

func TestHTTPPayloadCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 4096))
	}))
	defer srv.Close()
	r := NewRegistry(Options{Retry: fastRetry(3), MaxPayloadBytes: 1024})
	d := def(t, "t", map[string]string{"source": srv.URL, "format": "csv"})
	_, stats, err := r.LoadContext(context.Background(), d, schema.MustFromNames("a"), nil, 0)
	if err == nil || !strings.Contains(err.Error(), "payload cap") {
		t.Fatalf("oversized payload passed the cap: %v", err)
	}
	// The cap violation is permanent: it must not be retried.
	if stats.Attempts != 1 {
		t.Fatalf("cap violation retried %d times", stats.Attempts)
	}
}
