// Negotiated source pushdown: the cost-based optimizer (internal/dag's
// Optimize) may ask a source to skip decoding columns nothing downstream
// reads, and the executor may ask it to stream its rows. The request is
// an offer, never an assumption — a format that cannot honor part of it
// declines that part in its PushdownResult, and since no reader reads a
// skipped column, a declined or partially applied pushdown is always
// sound. Negotiation happens in-band with the single decode a plain
// Load performs, after the same single fetch: declining never
// refetches, so retry accounting (si_source_retries_total) is identical
// with pushdown on and off.
package connector

import (
	"context"
	"fmt"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
)

// Pushdown is the optimizer's request to a source: skip decoding
// SkipColumns (columns no downstream stage reads — they surface as
// nulls), and the executor's: hand the rows to Push a chunk at a time.
// Either part may be empty.
type Pushdown struct {
	// SkipColumns are declared columns whose values are never read
	// downstream; connectors may decode them as nulls.
	SkipColumns []string `json:"skip_columns,omitempty"`
	// Push, when set, asks for the rows as a streaming colstore.Builder
	// hands them on, a batch of 1,024 at a time, instead of a table. A
	// format that accepts returns no table, and the first error Push
	// returns; one that declines returns its table and never calls it.
	Push func(*colstore.Batch) error `json:"-"`
}

// Empty reports whether the request asks for nothing.
func (pd Pushdown) Empty() bool {
	return len(pd.SkipColumns) == 0 && pd.Push == nil
}

// PushdownResult reports what a connector actually applied. Declined
// parts are simply absent — a decline is a normal outcome, not an
// error.
type PushdownResult struct {
	// SkippedColumns lists the requested columns the source actually
	// skipped (decoded as nulls).
	SkippedColumns []string `json:"skipped_columns,omitempty"`
	// Streamed is true when the source pushed its rows into the offer's
	// Push and returned no table.
	Streamed bool `json:"streamed,omitempty"`
	// Rows is how many rows the decode produced: its table's, or those it
	// pushed. DecodePushdown sets it.
	Rows int `json:"-"`
}

// FormatPushdown is the optional capability hook, the one the offer
// meets: a format that can skip column parsing or stream its rows while
// decoding implements it. Unsupported parts of pd are ignored (and
// absent from the result), never errors, and the payload is decoded
// exactly once either way.
type FormatPushdown interface {
	DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error)
}

// skipMask is how a format reads an offer's SkipColumns: skip marks the
// schema columns it names, and skipped lists them in request order.
func skipMask(s *schema.Schema, cols []string) (skip []bool, skipped []string) {
	skip = make([]bool, s.Len())
	for _, c := range cols {
		if i := s.Index(c); i >= 0 {
			skip[i] = true
			skipped = append(skipped, c)
		}
	}
	return skip, skipped
}

// Fetch is the protocol half of a load: the source's circuit breaker,
// then the fetch under the retry policy, in a fetch span under parent on
// tr. A dashboard run fetches every source first and decodes a payload
// only when a node that runs reads it.
func (r *Registry) Fetch(ctx context.Context, d *flowfile.DataDef, tr obs.Tracer, parent int) ([]byte, LoadStats, error) {
	var stats LoadStats
	p, pname, err := r.protocolFor(d)
	if err != nil {
		return nil, stats, err
	}
	stats.Protocol = pname
	breaker := r.breakers.For(pname + "\x00" + d.Prop("source"))
	fid := 0
	if tr != nil {
		fid = tr.StartSpan(parent, p.span)
	}
	var payload []byte
	if berr := breaker.Allow(); berr != nil {
		err = fmt.Errorf("source unavailable (%s, %w)", breaker.State(), berr)
	} else {
		stats.Attempts, err = r.policyFor(d).Do(ctx, func(actx context.Context) (ferr error) {
			payload, ferr = fetch(actx, p.impl, d)
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
		return nil, stats, fmt.Errorf("connector: D.%s via %s: %w", d.Name, pname, err)
	}
	return payload, stats, nil
}

// DecodePushdown is the format half of every load: offer the definition's
// format pd and decode the payload exactly once, in a decode span under
// parent on tr (nil traces nothing). The dashboard runtime also decodes
// the per-dashboard data folder (uploaded files referenced as
// `data:<file>`) with it, whose payloads live outside any protocol
// connector.
func (r *Registry) DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown, tr obs.Tracer, parent int) (*table.Table, PushdownResult, error) {
	var res PushdownResult
	if s == nil {
		return nil, res, fmt.Errorf("connector: D.%s has no declared schema", d.Name)
	}
	f, fname, err := r.formatFor(d)
	if err != nil {
		return nil, res, err
	}
	fp, formatPush := f.impl.(FormatPushdown)
	formatPush = formatPush && !pd.Empty()
	did := 0
	if tr != nil {
		did = tr.StartSpan(parent, f.span)
	}
	var t *table.Table
	pushed := 0
	if push := pd.Push; push != nil {
		pd.Push = func(b *colstore.Batch) error {
			pushed += b.Len()
			return push(b)
		}
	}
	if formatPush {
		t, res, err = fp.DecodePushdown(d, s, payload, pd)
	} else {
		t, err = f.impl.Decode(d, s, payload)
	}
	if res.Rows = pushed; t != nil {
		res.Rows = t.Len()
	}
	if tr != nil {
		if len(res.SkippedColumns) > 0 {
			tr.SpanFlag(did, "pushdown")
		}
		if err == nil {
			tr.SpanInt(did, "rows_out", int64(res.Rows))
		}
		tr.EndSpan(did)
	}
	if err != nil {
		return nil, res, fmt.Errorf("connector: D.%s as %s: %w", d.Name, fname, err)
	}
	return t, res, nil
}
