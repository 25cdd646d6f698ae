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

// loadPushdownContext is a dashboard run's load of one source: Fetch,
// then DecodePushdown with the plan's offer.
func loadPushdownContext(ctx context.Context, r *Registry, d *flowfile.DataDef, s *schema.Schema, pd Pushdown, tr obs.Tracer, parent int) (*table.Table, LoadStats, PushdownResult, error) {
	payload, stats, err := r.Fetch(ctx, d, tr, parent)
	if err != nil {
		return nil, stats, PushdownResult{}, err
	}
	t, res, err := r.DecodePushdown(d, s, payload, pd, tr, parent)
	return t, stats, res, err
}

// loadPushdown is loadPushdownContext without deadline, tracing or stats.
func loadPushdown(r *Registry, d *flowfile.DataDef, s *schema.Schema, pd Pushdown) (*table.Table, PushdownResult, error) {
	t, _, res, err := loadPushdownContext(context.Background(), r, d, s, pd, nil, 0)
	return t, res, err
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

func TestJSONFormatDeclinesPushdown(t *testing.T) {
	// json has no DecodePushdown: the whole offer is declined, the load
	// still succeeds, and every row decodes.
	r := NewRegistry(Options{
		Mem:   map[string][]byte{"t.json": []byte(`[{"region":"east","amount":10},{"region":"west","amount":200}]`)},
		Retry: fastRetry(0),
	})
	d := def(t, "t", map[string]string{"source": "mem:t.json", "format": "json"})
	tb, res, err := loadPushdown(r, d, schema.MustFromNames("region", "amount"), Pushdown{SkipColumns: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedColumns) != 0 {
		t.Fatalf("format without the capability reported pushdown: %+v", res)
	}
	if tb.Len() != 2 {
		t.Fatalf("declined pushdown dropped rows: %d", tb.Len())
	}
}

// TestDecodeSpanFlagsWhatWasApplied: the decode span is flagged pushdown
// by what the format applied, not by what it was offered — an offer to
// skip a column the schema lacks skips nothing and leaves the span
// unflagged, and an offer to skip a declared column flags it.
func TestDecodeSpanFlagsWhatWasApplied(t *testing.T) {
	s := pushSchema()
	src := table.New(s)
	src.AppendValues(value.NewString("east"), value.NewInt(10), value.NewString("a"))
	r := NewRegistry(Options{Mem: map[string][]byte{"t.sbin": EncodeSBIN(src), "t.csv": []byte(pushCSV)}, Retry: fastRetry(0)})
	for _, tc := range []struct {
		format  string
		pd      Pushdown
		flagged bool
	}{
		{"sbin", Pushdown{SkipColumns: []string{"ghost"}}, false},
		{"sbin", Pushdown{SkipColumns: []string{"notes"}}, true},
		{"csv", Pushdown{SkipColumns: []string{"ghost"}}, false},
		{"csv", Pushdown{SkipColumns: []string{"notes"}}, true},
	} {
		tr := obs.NewTrace("load")
		d := def(t, "t", map[string]string{"source": "mem:t." + tc.format, "format": tc.format})
		if _, _, _, err := loadPushdownContext(context.Background(), r, d, s, tc.pd, tr, 0); err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "decode "+tc.format && sp.HasFlag("pushdown") != tc.flagged {
				t.Errorf("%s offered %+v: decode span flags %v, want pushdown %v", tc.format, tc.pd, sp.Flags, tc.flagged)
			}
		}
	}
}

func sameRows(a, b *table.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, row := range a.Rows() {
		for j, v := range row {
			if v.String() != b.At(i, j).String() {
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
	pd := Pushdown{SkipColumns: []string{"notes"}}
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
			onTb, onStats, res, err := loadPushdownContext(context.Background(), onR, chaosPushDef(t), s, pd, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.SkippedColumns) != 1 {
				t.Fatalf("csv declined the projection: %+v", res)
			}
			if onStats.Attempts != offStats.Attempts || onFP.Calls() != offFP.Calls() {
				t.Fatalf("pushdown changed fetch accounting: on=%d/%d off=%d/%d",
					onStats.Attempts, onFP.Calls(), offStats.Attempts, offFP.Calls())
			}
			// Identical results once skipped columns are nulls in both
			// (nothing reads them).
			want := table.New(s)
			for _, row := range offTb.Rows() {
				want.AppendValues(row[0], row[1], value.VNull)
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
		tb, stats, res, err := loadPushdownContext(context.Background(), r, d, s, pd, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		m.WritePrometheus(&buf)
		return tb, stats, res, fp.Calls(), buf.String()
	}
	offTb, offStats, _, offCalls, offMetrics := load(Pushdown{})
	onTb, onStats, res, onCalls, onMetrics := load(Pushdown{SkipColumns: []string{"region"}})
	if len(res.SkippedColumns) != 0 {
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
	pd := Pushdown{SkipColumns: []string{"notes"}}
	s := pushSchema()
	run := func(use bool) (calls []int, probe *table.Table) {
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
				tb, _, _, err := loadPushdownContext(context.Background(), r, d, s, pd, nil, 0)
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
		return calls, tb
	}
	offCalls, offTb := run(false)
	onCalls, onTb := run(true)
	for i := range offCalls {
		if onCalls[i] != offCalls[i] {
			t.Fatalf("breaker lifecycle diverged at step %d: on=%v off=%v", i, onCalls, offCalls)
		}
	}
	if offTb.Len() != 3 || onTb.Len() != 3 {
		t.Fatalf("probe rows: off=%d, on=%d, want 3", offTb.Len(), onTb.Len())
	}
	if offTb.At(0, 2).IsNull() || !onTb.At(0, 2).IsNull() {
		t.Fatalf("probe notes: off=%v, on=%v, want the projection applied on only", offTb.At(0, 2), onTb.At(0, 2))
	}
}
