package connector

import (
	"context"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/resilience"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

const pushCSV = "region,amount,notes\neast,10,a\nwest,200,b\neast,300,c\n"

func pushRegistry(retries int) *Registry {
	return NewRegistry(Options{
		Mem:   map[string][]byte{"t.csv": []byte(pushCSV)},
		Retry: fastRetry(retries),
	})
}

func pushDef(t *testing.T) *flowfile.DataDef {
	return def(t, "t", map[string]string{"source": "mem:t.csv", "format": "csv"})
}

func pushSchema() *schema.Schema { return schema.MustFromNames("region", "amount", "notes") }

// loadPushdown is LoadPushdownContext without deadline, tracing or stats.
func loadPushdown(r *Registry, d *flowfile.DataDef, s *schema.Schema, pd Pushdown) (*table.Table, PushdownResult, error) {
	t, _, res, err := r.LoadPushdownContext(context.Background(), d, s, pd, nil, 0)
	return t, res, err
}

func TestCSVPredicatePushdown(t *testing.T) {
	r := pushRegistry(0)
	tb, res, err := loadPushdown(r, pushDef(t), pushSchema(), Pushdown{Predicate: "amount > 100"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PredicateApplied {
		t.Fatalf("csv declined a bindable predicate: %+v", res)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (filtered at decode)", tb.Len())
	}
	for _, row := range tb.Rows() {
		if row[1].Int() <= 100 {
			t.Fatalf("pushed predicate let through %v", row)
		}
	}
}

func TestCSVSkipColumnsDecodeAsNulls(t *testing.T) {
	r := pushRegistry(0)
	tb, res, err := loadPushdown(r, pushDef(t), pushSchema(), Pushdown{SkipColumns: []string{"notes", "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedColumns) != 1 || res.SkippedColumns[0] != "notes" {
		t.Fatalf("SkippedColumns = %v, want [notes] (unknown columns ignored)", res.SkippedColumns)
	}
	for _, row := range tb.Rows() {
		if !row[2].IsNull() {
			t.Fatalf("skipped column decoded a value: %v", row)
		}
		if row[0].IsNull() || row[1].IsNull() {
			t.Fatalf("live column lost its value: %v", row)
		}
	}
}

func TestCSVPredicateKeepsItsColumns(t *testing.T) {
	// The predicate reads amount; a request to also skip amount must
	// keep it decoding (nulling it would evaluate the filter on nulls).
	r := pushRegistry(0)
	tb, res, err := loadPushdown(r, pushDef(t), pushSchema(), Pushdown{
		Predicate:   "amount > 100",
		SkipColumns: []string{"amount", "notes"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedColumns) != 1 || res.SkippedColumns[0] != "notes" {
		t.Fatalf("SkippedColumns = %v, want [notes]", res.SkippedColumns)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tb.Len())
	}
	for _, row := range tb.Rows() {
		if row[1].IsNull() {
			t.Fatalf("predicate column was nulled: %v", row)
		}
	}
}

func TestCSVUnbindablePredicateDeclined(t *testing.T) {
	r := pushRegistry(0)
	tb, res, err := loadPushdown(r, pushDef(t), pushSchema(), Pushdown{Predicate: "nosuch > 1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredicateApplied {
		t.Fatal("unbindable predicate reported as applied")
	}
	if tb.Len() != 3 {
		t.Fatalf("declined pushdown dropped rows: %d", tb.Len())
	}
}

func TestJSONFormatDeclinesPushdown(t *testing.T) {
	// json has no DecodePushdown: the whole offer is declined, the load
	// still succeeds, and every row decodes.
	r := NewRegistry(Options{
		Mem:   map[string][]byte{"t.json": []byte(`[{"region":"east","amount":10},{"region":"west","amount":200}]`)},
		Retry: fastRetry(0),
	})
	d := def(t, "t", map[string]string{"source": "mem:t.json", "format": "json"})
	tb, res, err := loadPushdown(r, d, schema.MustFromNames("region", "amount"), Pushdown{Predicate: "amount > 100", SkipColumns: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredicateApplied || len(res.SkippedColumns) != 0 {
		t.Fatalf("format without the capability reported pushdown: %+v", res)
	}
	if tb.Len() != 2 {
		t.Fatalf("declined pushdown dropped rows: %d", tb.Len())
	}
}

// applyPred filters a table by the same predicate a consumer pipeline
// would re-apply — the reference semantics for the equivalence checks.
func applyPred(t *testing.T, tb *table.Table, keep func(table.Row) bool) *table.Table {
	t.Helper()
	out := table.New(tb.Schema())
	for _, row := range tb.Rows() {
		if keep(row) {
			out.Append(row)
		}
	}
	return out
}

func sameRows(a, b *table.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, row := range a.Rows() {
		for j, v := range row {
			if v.String() != b.Rows()[i][j].String() {
				return false
			}
		}
	}
	return true
}

// chaosPushRegistry wires a fault-injected protocol over the pushdown
// payload, mirroring chaosRegistry but with three columns.
func chaosPushRegistry(t *testing.T, cfg FaultConfig, retries int) (*Registry, *FaultProtocol) {
	t.Helper()
	r := NewRegistry(Options{Retry: fastRetry(retries)})
	fp := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.csv": []byte(pushCSV)}}, cfg)
	if err := r.RegisterProtocol("chaos", fp); err != nil {
		t.Fatal(err)
	}
	return r, fp
}

func chaosPushDef(t *testing.T) *flowfile.DataDef {
	return def(t, "t", map[string]string{"source": "t.csv", "protocol": "chaos", "format": "csv"})
}

// TestPushdownRetryEquivalence is the pushdown × retry interplay
// matrix: a flaky source that recovers after N retries must yield the
// same rows, the same attempt counts, and the same retry metrics with
// pushdown on and off — a pushdown never adds or hides fetch attempts.
func TestPushdownRetryEquivalence(t *testing.T) {
	pd := Pushdown{Predicate: "amount > 100", SkipColumns: []string{"notes"}}
	keep := func(row table.Row) bool { return row[1].Int() > 100 }
	for _, tc := range []struct {
		name string
		cfg  FaultConfig
	}{
		{"healthy", FaultConfig{}},
		{"recovers_after_2", FaultConfig{FailFirst: 2}},
		{"every_3rd_fails", FaultConfig{FailEvery: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := pushSchema()
			offR, offFP := chaosPushRegistry(t, tc.cfg, 3)
			offTb, offStats, err := offR.LoadContext(context.Background(), chaosPushDef(t), s, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			onR, onFP := chaosPushRegistry(t, tc.cfg, 3)
			onTb, onStats, res, err := onR.LoadPushdownContext(context.Background(), chaosPushDef(t), s, pd, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.PredicateApplied {
				t.Fatalf("csv declined the predicate: %+v", res)
			}
			if onStats.Attempts != offStats.Attempts || onFP.Calls() != offFP.Calls() {
				t.Fatalf("pushdown changed fetch accounting: on=%d/%d off=%d/%d",
					onStats.Attempts, onFP.Calls(), offStats.Attempts, offFP.Calls())
			}
			// Identical results once the consumer's own filter (which
			// stays in the pipeline) runs over the pushdown-off rows;
			// skipped columns are nulls in both (nothing reads them).
			want := applyPred(t, offTb, keep)
			for _, row := range want.Rows() {
				row[2] = value.VNull
			}
			if !sameRows(onTb, want) {
				t.Fatalf("pushdown-on rows diverge:\non=%v\nwant=%v", onTb.Rows(), want.Rows())
			}
		})
	}
}

// TestDeclinedPushdownNoDoubleCharge pins the probe-before-fetch
// contract: a pushdown the stack declines (json format, plain mem
// protocol) falls back inside the one retried fetch — the source sees
// exactly as many calls as a pushdown-off load and
// si_source_retries_total advances by exactly the same amount.
func TestDeclinedPushdownNoDoubleCharge(t *testing.T) {
	payload := `[{"region":"east","amount":10},{"region":"west","amount":200}]`
	s := schema.MustFromNames("region", "amount")
	load := func(pd Pushdown) (*table.Table, LoadStats, PushdownResult, int, string) {
		r := NewRegistry(Options{Retry: fastRetry(3)})
		fp := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.json": []byte(payload)}}, FaultConfig{FailFirst: 2})
		if err := r.RegisterProtocol("chaos", fp); err != nil {
			t.Fatal(err)
		}
		m := obs.NewRegistry()
		r.SetMetrics(m)
		d := def(t, "t", map[string]string{"source": "t.json", "protocol": "chaos", "format": "json"})
		tb, stats, res, err := r.LoadPushdownContext(context.Background(), d, s, pd, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		m.WritePrometheus(&buf)
		return tb, stats, res, fp.Calls(), buf.String()
	}
	offTb, offStats, _, offCalls, offMetrics := load(Pushdown{})
	onTb, onStats, res, onCalls, onMetrics := load(Pushdown{Predicate: "amount > 100", SkipColumns: []string{"region"}})
	if res.PredicateApplied || len(res.SkippedColumns) != 0 {
		t.Fatalf("expected a full decline, got %+v", res)
	}
	if onCalls != offCalls || onStats.Attempts != offStats.Attempts {
		t.Fatalf("declined pushdown changed fetch counts: on=%d/%d off=%d/%d",
			onCalls, onStats.Attempts, offCalls, offStats.Attempts)
	}
	const wantRetries = `si_source_retries_total{protocol="chaos"} 2`
	if !strings.Contains(onMetrics, wantRetries) || !strings.Contains(offMetrics, wantRetries) {
		t.Fatalf("retry metric double-charged:\non:\n%s\noff:\n%s", onMetrics, offMetrics)
	}
	if !sameRows(onTb, offTb) {
		t.Fatalf("declined pushdown changed rows:\non=%v\noff=%v", onTb.Rows(), offTb.Rows())
	}
}

// TestPushdownBreakerHalfOpenEquivalence is the pushdown × breaker
// interplay: the trip / fail-fast / half-open-probe / close lifecycle
// is identical with a pushdown offered, and the successful probe both
// closes the breaker and applies the pushdown.
func TestPushdownBreakerHalfOpenEquivalence(t *testing.T) {
	pd := Pushdown{Predicate: "amount > 100"}
	s := pushSchema()
	run := func(use bool) (calls []int, probeRows int) {
		clock := time.Unix(0, 0)
		r := NewRegistry(Options{
			Retry:   fastRetry(0),
			Breaker: resilience.BreakerConfig{FailureThreshold: 3, OpenFor: 10 * time.Second, Now: func() time.Time { return clock }},
		})
		fp := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.csv": []byte(pushCSV)}}, FaultConfig{FailFirst: 3})
		if err := r.RegisterProtocol("chaos", fp); err != nil {
			t.Fatal(err)
		}
		d := chaosPushDef(t)
		load := func() (*table.Table, error) {
			if use {
				tb, _, _, err := r.LoadPushdownContext(context.Background(), d, s, pd, nil, 0)
				return tb, err
			}
			tb, _, err := r.LoadContext(context.Background(), d, s, nil, 0)
			return tb, err
		}
		// Three failures trip the breaker.
		for i := 0; i < 3; i++ {
			if _, err := load(); err == nil {
				t.Fatalf("call %d unexpectedly succeeded", i)
			}
			calls = append(calls, fp.Calls())
		}
		// Open: fail fast, source untouched.
		if _, err := load(); err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
			t.Fatalf("open breaker let the call through: %v", err)
		}
		calls = append(calls, fp.Calls())
		// Half-open probe succeeds and closes the breaker.
		clock = clock.Add(11 * time.Second)
		tb, err := load()
		if err != nil {
			t.Fatalf("half-open probe failed: %v", err)
		}
		calls = append(calls, fp.Calls())
		if st := r.Breakers().For("chaos\x00t.csv").State(); st != resilience.Closed {
			t.Fatalf("breaker %v after successful probe, want closed", st)
		}
		return calls, tb.Len()
	}
	offCalls, offRows := run(false)
	onCalls, onRows := run(true)
	for i := range offCalls {
		if onCalls[i] != offCalls[i] {
			t.Fatalf("breaker lifecycle diverged at step %d: on=%v off=%v", i, onCalls, offCalls)
		}
	}
	if offRows != 3 || onRows != 2 {
		t.Fatalf("probe rows: off=%d (want 3), on=%d (want 2, predicate applied)", offRows, onRows)
	}
}

// TestFaultProtocolForwardsCapability pins that the chaos wrapper
// forwards FetchPushdown to a capable inner protocol and declines for
// a plain one.
func TestFaultProtocolForwardsCapability(t *testing.T) {
	inner := &capableProtocol{payload: []byte(pushCSV)}
	fp := NewFaultProtocol(inner, FaultConfig{})
	b, res, err := fp.FetchPushdown(context.Background(), pushDef(t), Pushdown{Predicate: "x > 1"})
	if err != nil || !res.PredicateApplied {
		t.Fatalf("capability not forwarded: res=%+v err=%v", res, err)
	}
	if string(b) != pushCSV {
		t.Fatal("payload mangled")
	}
	plain := NewFaultProtocol(&memProtocol{data: map[string][]byte{"t.csv": []byte(pushCSV)}}, FaultConfig{})
	d := def(t, "t", map[string]string{"source": "t.csv"})
	_, res, err = plain.FetchPushdown(context.Background(), d, Pushdown{Predicate: "x > 1"})
	if err != nil || res.PredicateApplied {
		t.Fatalf("plain inner should decline: res=%+v err=%v", res, err)
	}
}

// capableProtocol is a test protocol that claims full predicate
// pushdown support.
type capableProtocol struct{ payload []byte }

func (p *capableProtocol) Fetch(d *flowfile.DataDef) ([]byte, error) { return p.payload, nil }

func (p *capableProtocol) FetchPushdown(ctx context.Context, d *flowfile.DataDef, pd Pushdown) ([]byte, PushdownResult, error) {
	return p.payload, PushdownResult{PredicateApplied: pd.Predicate != ""}, nil
}
