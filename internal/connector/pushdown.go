// Negotiated source pushdown: the cost-based optimizer (internal/dag's
// Optimize) may ask a source to apply a filter predicate and to skip
// decoding columns nothing downstream reads. The request is an offer,
// never an assumption — a protocol or format that cannot honor part of
// it declines that part in its PushdownResult and the pipeline's own
// stages re-establish the semantics (pushed predicates stay in the
// consumer pipeline, so a declined or partially applied pushdown is
// always sound). Negotiation happens in-band with the single fetch and
// the single decode a plain Load performs: declining never refetches,
// so retry accounting (si_source_retries_total) is identical with
// pushdown on and off.
package connector

import (
	"context"
	"fmt"

	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// Pushdown is the optimizer's request to a source: filter rows by
// Predicate (an expression over the declared schema) and skip decoding
// SkipColumns (columns no downstream stage reads — they surface as
// nulls). Either part may be empty.
type Pushdown struct {
	// Predicate filters rows at the source. The consumer pipeline
	// re-applies the same filter, so connectors may apply it fully,
	// partially, or not at all.
	Predicate string `json:"predicate,omitempty"`
	// SkipColumns are declared columns whose values are never read
	// downstream; connectors may decode them as nulls.
	SkipColumns []string `json:"skip_columns,omitempty"`
}

// Empty reports whether the request asks for nothing.
func (pd Pushdown) Empty() bool { return pd.Predicate == "" && len(pd.SkipColumns) == 0 }

// PushdownResult reports what a connector actually applied. Declined
// parts are simply absent — a decline is a normal outcome, not an
// error.
type PushdownResult struct {
	// PredicateApplied is true when the source filtered rows by the
	// requested predicate.
	PredicateApplied bool `json:"predicate_applied,omitempty"`
	// SkippedColumns lists the requested columns the source actually
	// skipped (decoded as nulls).
	SkippedColumns []string `json:"skipped_columns,omitempty"`
}

// ProtocolPushdown is the optional protocol capability hook: a
// connector that can ask its source to filter or project server-side
// implements it. FetchPushdown must behave exactly like Fetch for the
// parts of pd it declines, and report what it applied — it must never
// fail because of the pushdown itself.
type ProtocolPushdown interface {
	FetchPushdown(ctx context.Context, d *flowfile.DataDef, pd Pushdown) ([]byte, PushdownResult, error)
}

// FormatPushdown is the optional format capability hook: a format that
// can filter rows or skip column parsing while decoding implements it.
// The same decline contract applies: unsupported parts of pd are
// ignored (and absent from the result), never errors, and the payload
// is decoded exactly once either way.
type FormatPushdown interface {
	DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error)
}

// subtractStrings returns xs minus the elements of ys, preserving
// order.
func subtractStrings(xs, ys []string) []string {
	if len(ys) == 0 {
		return xs
	}
	drop := make(map[string]bool, len(ys))
	for _, y := range ys {
		drop[y] = true
	}
	out := xs[:0:0]
	for _, x := range xs {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

// LoadPushdownContext is LoadContext with a pushdown offer. The offer
// is negotiated in two steps against the exact same fetch/decode
// sequence a plain load performs: the protocol sees the whole request
// first (inside the one retried fetch — capability is probed before
// fetching, so a decline never refetches or re-charges retry metrics),
// then whatever it declined is offered to the format at decode time.
// The merged PushdownResult reports what was applied; callers needing
// exact semantics must keep the predicate in the consumer pipeline,
// where re-applying it is idempotent.
func (r *Registry) LoadPushdownContext(ctx context.Context, d *flowfile.DataDef, s *schema.Schema, pd Pushdown, tr obs.Tracer, parent int) (*table.Table, LoadStats, PushdownResult, error) {
	var stats LoadStats
	var res PushdownResult
	if s == nil {
		return nil, stats, res, fmt.Errorf("connector: D.%s has no declared schema", d.Name)
	}
	p, pname, err := r.protocolFor(d)
	if err != nil {
		return nil, stats, res, err
	}
	stats.Protocol = pname
	// Probe the protocol capability before any fetch runs: the fetch
	// below happens exactly once through the retry policy whether the
	// pushdown is applied, partially applied, or declined.
	pp, protoPush := p.(ProtocolPushdown)
	protoPush = protoPush && !pd.Empty()
	breaker := r.breakers.For(pname + "\x00" + d.Prop("source"))
	fid := 0
	if tr != nil {
		fid = tr.StartSpan(parent, "fetch "+pname)
	}
	var payload []byte
	if berr := breaker.Allow(); berr != nil {
		err = fmt.Errorf("source unavailable (%s, %w)", breaker.State(), berr)
	} else {
		policy := r.policyFor(d)
		stats.Attempts, err = policy.Do(ctx, func(actx context.Context) error {
			var ferr error
			if protoPush {
				payload, res, ferr = pp.FetchPushdown(actx, d, pd)
			} else {
				payload, ferr = fetch(actx, p, d)
			}
			return ferr
		})
		if err != nil {
			breaker.Failure()
		} else {
			breaker.Success()
		}
	}
	if retries := stats.Attempts - 1; retries > 0 {
		if m := r.Metrics(); m != nil {
			m.CounterVec("si_source_retries_total",
				"Source fetch retries, by protocol.", "protocol").
				With(pname).Add(int64(retries))
		}
		if tr != nil {
			tr.SpanInt(fid, "retries", int64(retries))
		}
	}
	if tr != nil {
		tr.SpanInt(fid, "bytes", int64(len(payload)))
		if err != nil {
			tr.SpanFlag(fid, "error")
		}
		tr.EndSpan(fid)
	}
	if err != nil {
		return nil, stats, res, fmt.Errorf("connector: D.%s via %s: %w", d.Name, pname, err)
	}
	t, res, err := r.decode(d, s, payload, pd, res, tr, parent)
	return t, stats, res, err
}

// DecodePushdown decodes an already-fetched payload with the
// definition's configured format, making the format the same offer a
// load would. The dashboard runtime uses it for the per-dashboard data
// folder (uploaded files referenced as `data:<file>`), whose payloads
// live outside any protocol connector.
func (r *Registry) DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error) {
	if s == nil {
		return nil, PushdownResult{}, fmt.Errorf("connector: D.%s has no declared schema", d.Name)
	}
	return r.decode(d, s, payload, pd, PushdownResult{}, nil, 0)
}

// decode is the format half of every load: offer the format whatever
// of pd the protocol's result res left unapplied, decode the payload
// exactly once, and merge what the format applied into res.
func (r *Registry) decode(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown, res PushdownResult, tr obs.Tracer, parent int) (*table.Table, PushdownResult, error) {
	f, fname, err := r.formatFor(d)
	if err != nil {
		return nil, res, err
	}
	rem := pd
	if res.PredicateApplied {
		rem.Predicate = ""
	}
	rem.SkipColumns = subtractStrings(rem.SkipColumns, res.SkippedColumns)
	fp, formatPush := f.(FormatPushdown)
	formatPush = formatPush && !rem.Empty()
	did := 0
	if tr != nil {
		did = tr.StartSpan(parent, "decode "+fname)
		if res.PredicateApplied || formatPush {
			tr.SpanFlag(did, "pushdown")
		}
	}
	var t *table.Table
	if formatPush {
		var fres PushdownResult
		t, fres, err = fp.DecodePushdown(d, s, payload, rem)
		res.PredicateApplied = res.PredicateApplied || fres.PredicateApplied
		res.SkippedColumns = append(res.SkippedColumns, fres.SkippedColumns...)
	} else {
		t, err = f.Decode(d, s, payload)
	}
	if tr != nil {
		if t != nil {
			tr.SpanInt(did, "rows_out", int64(t.Len()))
		}
		tr.EndSpan(did)
	}
	if err != nil {
		return nil, res, fmt.Errorf("connector: D.%s as %s: %w", d.Name, fname, err)
	}
	return t, res, nil
}

// compilePushdownPredicate binds a pushed predicate against the
// declared schema for decode-time filtering. It returns the bound
// evaluator plus the columns the predicate reads (those must keep
// decoding even when listed in SkipColumns). A predicate that fails to
// parse or bind is declined (nil evaluator) — the consumer pipeline
// still applies it, so declining is always sound.
func compilePushdownPredicate(pred string, s *schema.Schema) (expr.Eval, []string) {
	if pred == "" {
		return nil, nil
	}
	ev, err := expr.Compile(pred, s)
	if err != nil {
		return nil, nil
	}
	need, err := expr.ReferencedColumns(pred)
	if err != nil {
		return nil, nil
	}
	return ev, need
}
