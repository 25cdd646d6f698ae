package dashboard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/connector"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/resilience"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
)

// flakyProtocol serves a fixed payload and fails on demand — the
// "independently-owned source that goes down between runs" scenario.
type flakyProtocol struct {
	payload []byte
	fail    atomic.Bool
	calls   atomic.Int64
}

func (p *flakyProtocol) Fetch(*flowfile.DataDef) ([]byte, error) {
	p.calls.Add(1)
	if p.fail.Load() {
		return nil, errors.New("source offline")
	}
	return p.payload, nil
}

// hangProtocol blocks until the context dies.
type hangProtocol struct{}

func (hangProtocol) Fetch(*flowfile.DataDef) ([]byte, error) {
	select {} // unreachable: FetchContext is used when present
}

func (hangProtocol) FetchContext(ctx context.Context, _ *flowfile.DataDef) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

const degradeFlowTmpl = `
D:
  sales: [region, amount]
  totals: [region, total]

D.sales:
  source: sales.csv
  protocol: flaky
  format: csv
  on_error: %s

F:
  D.totals: D.sales | T.by_region

  D.totals:
    endpoint: true

T:
  by_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`

func degradePlatform(t *testing.T, proto connector.Protocol) *Platform {
	t.Helper()
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Retry: resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }},
	})
	if err := p.Connectors.RegisterProtocol("flaky", proto); err != nil {
		t.Fatal(err)
	}
	return p
}

func compileDegrade(t *testing.T, p *Platform, mode string) *Dashboard {
	t.Helper()
	f, err := flowfile.Parse("sales_dash", fmt.Sprintf(degradeFlowTmpl, mode))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStaleDegradationServesLastGood(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\nwest,20\n")}
	p := degradePlatform(t, proto)
	p.Metrics = obs.NewRegistry()
	d := compileDegrade(t, p, "stale")
	if err := d.Run(); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if h := d.Health(); h.Status != "ok" || h.Sources[0].Status != "ok" {
		t.Fatalf("healthy run health = %+v", h)
	}
	// The source goes down; the next run must complete on the snapshot.
	proto.fail.Store(true)
	if err := d.Run(); err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	h := d.Health()
	if h.Status != "degraded" || !h.Degraded() {
		t.Fatalf("health = %+v, want degraded", h)
	}
	sh := h.Sources[0]
	if sh.Status != "stale" || sh.Mode != "stale" || !strings.Contains(sh.Error, "source offline") {
		t.Fatalf("source health = %+v", sh)
	}
	tb, ok := d.Endpoint("totals")
	if !ok || tb.Len() != 2 {
		t.Fatalf("degraded run lost the endpoint data: ok=%v", ok)
	}
	var buf bytes.Buffer
	p.Metrics.WritePrometheus(&buf)
	for _, want := range []string{"si_runs_degraded_total 1", `si_sources_degraded_total{mode="stale"} 1`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestStaleSurvivesRecompile pins the reason the snapshot cache lives on
// the Platform: the server recompiles dashboards on every flow-file
// save, and a recompiled dashboard must still degrade gracefully.
func TestStaleSurvivesRecompile(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\n")}
	p := degradePlatform(t, proto)
	d := compileDegrade(t, p, "stale")
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	proto.fail.Store(true)
	d2 := compileDegrade(t, p, "stale")
	if err := d2.Run(); err != nil {
		t.Fatalf("recompiled dashboard lost the snapshot: %v", err)
	}
	if d2.Health().Status != "degraded" {
		t.Fatalf("health = %+v", d2.Health())
	}
}

func TestStaleWithoutSnapshotFails(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\n")}
	proto.fail.Store(true)
	p := degradePlatform(t, proto)
	d := compileDegrade(t, p, "stale")
	err := d.Run()
	if err == nil || !strings.Contains(err.Error(), "no last-good snapshot") {
		t.Fatalf("err = %v, want no-snapshot explanation", err)
	}
	if d.Health().Status != "error" {
		t.Fatalf("health = %+v", d.Health())
	}
}

func TestEmptyDegradationSubstitutesEmptyTable(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\n")}
	proto.fail.Store(true)
	p := degradePlatform(t, proto)
	d := compileDegrade(t, p, "empty")
	if err := d.Run(); err != nil {
		t.Fatalf("empty degradation failed the run: %v", err)
	}
	h := d.Health()
	if h.Status != "degraded" || h.Sources[0].Status != "empty" {
		t.Fatalf("health = %+v", h)
	}
	tb, ok := d.Endpoint("totals")
	if !ok || tb.Len() != 0 {
		t.Fatalf("endpoint = %v rows (ok=%v), want empty table", tb.Len(), ok)
	}
}

func TestOnErrorFailIsDefault(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\n")}
	proto.fail.Store(true)
	p := degradePlatform(t, proto)
	d := compileDegrade(t, p, "fail")
	if err := d.Run(); err == nil || !strings.Contains(err.Error(), "source offline") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunContextExpiredDeadline pins the acceptance criterion: a dead
// deadline fails the run promptly, with the context error, before any
// source is fetched.
func TestRunContextExpiredDeadline(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\n")}
	p := degradePlatform(t, proto)
	d := compileDegrade(t, p, "fail")
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	start := time.Now()
	err := d.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("expired deadline took %v to return", since)
	}
	if proto.calls.Load() != 0 {
		t.Fatal("expired deadline still fetched the source")
	}
	if d.Health().Status != "error" {
		t.Fatalf("health = %+v", d.Health())
	}
}

func TestPlatformRunTimeoutCancelsHungSource(t *testing.T) {
	p := degradePlatform(t, hangProtocol{})
	p.RunTimeout = 50 * time.Millisecond
	d := compileDegrade(t, p, "fail")
	start := time.Now()
	err := d.Run()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("hung source held the run for %v", since)
	}
}

// panicSpec is a task whose execution panics (a buggy user extension).
type panicSpec struct{}

func (panicSpec) Type() string                                { return "boom" }
func (panicSpec) Out(in []task.Input) (*schema.Schema, error) { return in[0].Schema, nil }
func (panicSpec) Exec(*task.Env, []*table.Table, []string) (*table.Table, error) {
	panic("boom: nil dereference in user task")
}

const panicDashFlow = `
D:
  sales: [region, amount]
  out: [region, amount]

D.sales:
  source: sales.csv
  protocol: flaky
  format: csv

F:
  D.out: D.sales | T.explode

  D.out:
    endpoint: true

T:
  explode:
    type: boom
`

func TestPanicTaskFailsRunWithStack(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\n")}
	p := degradePlatform(t, proto)
	if err := p.Tasks.Register("boom", func(*flowfile.Node) (task.Spec, error) { return panicSpec{}, nil }); err != nil {
		t.Fatal(err)
	}
	f, err := flowfile.Parse("boom_dash", panicDashFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	rerr := d.Run()
	if rerr == nil || !strings.Contains(rerr.Error(), "panic in stage") {
		t.Fatalf("err = %v, want structured panic error", rerr)
	}
	res := d.Result()
	if res == nil || len(res.Stats.Failures) == 0 {
		t.Fatal("partial result with failures not kept")
	}
	fl := res.Stats.Failures[0]
	if !fl.Panic || fl.Stack == "" || fl.Output != "out" {
		t.Fatalf("failure record = %+v", fl)
	}
	if d.Health().Status != "error" {
		t.Fatalf("health = %+v", d.Health())
	}
}

// TestWidgetSourceChargesRunBudget: the run budget covers widget
// endpoint pipelines, not only DAG nodes. The flow's one DAG node stays
// far under the row budget; the widget source fans three documents out
// into thirty words, and that stage is what exhausts it.
func TestWidgetSourceChargesRunBudget(t *testing.T) {
	src := `
D:
  docs: [body]

D.docs:
  source: mem:docs.csv
  format: csv

F:
  +D.kept: D.docs | T.nonempty

W:
  cloud:
    type: Grid
    source: D.docs | T.split

T:
  nonempty:
    type: filter_by
    filter_expression: body != ''
  split:
    type: map
    operator: extract_words
    transform: body
    output: word

L:
  rows:
    - [span12: W.cloud]
`
	f, err := flowfile.Parse("fanout", src)
	if err != nil {
		t.Fatal(err)
	}
	doc := "one two three four five six seven eight nine ten\n"
	run := func(maxRows int64) (*Dashboard, error) {
		p := NewPlatform()
		p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{"docs.csv": []byte(doc + doc + doc)}})
		p.NewRunBudget = func() batch.Budget { return admission.NewBudget(maxRows, 0) }
		d, err := p.Compile(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d, d.Run()
	}
	if _, err := run(100); err != nil {
		t.Fatalf("under budget: %v", err)
	}
	d, err := run(20)
	var be *admission.BudgetError
	if !errors.As(err, &be) || !strings.Contains(err.Error(), "widget W.cloud endpoint") {
		t.Fatalf("err = %v, want the budget error from the widget endpoint", err)
	}
	// Widget-endpoint stages stay out of the run's stage timings.
	for _, st := range d.Result().Stats.Timings {
		if st.Output != "kept" {
			t.Errorf("widget-endpoint stage in Stats.Timings: %+v", st)
		}
	}
}
