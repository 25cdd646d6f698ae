package dashboard

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/resilience"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/widget"
)

// Run executes the dashboard's data-processing plan: load sources,
// execute the flow DAG, publish shared sinks, materialize every widget's
// endpoint data, and evaluate the widgets' interaction pipelines for the
// initial selections.
//
// When a tracer is attached (platform-wide or via SetTracer) the run
// records a span tree — run → source fetch/decode → DAG node → task
// stage → widget endpoint/render — and when the platform carries a
// metrics registry the run feeds the engine counters and histograms
// documented in docs/OBSERVABILITY.md.
func (d *Dashboard) Run() error {
	return d.RunContext(context.Background())
}

// RunContext is Run honoring ctx: source fetches, DAG execution and
// widget refreshes all observe cancellation and deadlines. When the
// platform sets RunTimeout the run additionally gets that budget
// (whichever deadline is tighter wins).
func (d *Dashboard) RunContext(ctx context.Context) error {
	d.interact.Lock()
	defer d.interact.Unlock()
	if err := ctx.Err(); err != nil {
		// A dead context fails promptly, before any source is touched.
		d.health = RunHealth{Status: "error", Error: err.Error()}
		return fmt.Errorf("dashboard %s: %w", d.Name, err)
	}
	if d.platform.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = resilience.WithBudget(ctx, d.platform.RunTimeout)
		defer cancel()
	}
	tr := d.Tracer()
	runSpan := 0
	start := time.Now()
	if tr != nil {
		runSpan = tr.StartSpan(0, d.runName)
	}
	err := d.run(ctx, tr, runSpan)
	if tr != nil {
		if err != nil {
			tr.SpanFlag(runSpan, "error")
		}
		if d.health.Degraded() {
			tr.SpanFlag(runSpan, "degraded")
		}
		tr.EndSpan(runSpan)
	}
	if d.tracer != nil {
		d.runSpans = d.tracer.Len()
	}
	d.recordRunMetrics(time.Since(start), err)
	d.recordRunHistory(time.Since(start), err)
	return err
}

func (d *Dashboard) run(ctx context.Context, tr obs.Tracer, runSpan int) (err error) {
	h := RunHealth{Status: "ok"}
	defer func() {
		if err != nil {
			h.Status = "error"
			h.Error = err.Error()
		}
		d.health = h
	}()
	// Plan the run up front: one cost-based decision pass covering
	// filter order, source pushdown and sink skipping. Sources consult
	// it below (pushdown offers), the executor follows its per-node stage
	// lists.
	d.runPlan = d.Explain()
	// Fetch every source first: a source is keyed by its payload, so the
	// node cache decides which nodes run before any payload is decoded.
	names := d.Graph.Sources()
	srcs := make([]runSource, len(names))
	src := func(name string) *runSource { return &srcs[slices.Index(names, name)] }
	defer func() {
		// A lazy source's span stays open until the run decodes it: end
		// any it never did.
		for i := range srcs {
			if s := &srcs[i]; s.span != 0 {
				endSource(tr, s, -1, nil)
			}
		}
	}()
	for i, name := range names {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dashboard %s: %w", d.Name, cerr)
		}
		s := &srcs[i]
		s.n = d.Graph.Nodes[name]
		if tr != nil {
			s.span = tr.StartSpan(runSpan, s.n.SpanName())
		}
		attempts, lerr := d.fetchSource(ctx, s, tr)
		sh := SourceHealth{Name: name, Status: "ok", Mode: s.n.Def.OnError(), Attempts: attempts}
		if attempts > 1 {
			h.Retries += attempts - 1
		}
		// An endpoint or published source is read outside the run, and
		// one with an on_error fallback is decoded on every run, so that
		// a payload that fails to decode degrades it every time.
		s.lazy = s.lazy && sh.Mode == "fail" && !s.n.Def.Endpoint && s.n.Def.Publish == ""
		if lerr == nil && s.t == nil && !s.lazy {
			pd := connector.Pushdown{SkipColumns: d.skipColumns(name)}
			if s.t, _, lerr = d.platform.Connectors.DecodePushdown(s.n.Def, s.n.Schema, s.payload, pd, tr, s.span); lerr != nil {
				lerr = fmt.Errorf("dashboard %s: %w", d.Name, lerr)
			}
		}
		if lerr != nil {
			s.t, sh, lerr = d.degradeSource(name, sh, lerr)
			if sh.Status != "ok" {
				h.Status = "degraded"
				if tr != nil {
					tr.SpanFlag(s.span, "degraded")
				}
			}
		}
		h.Sources = append(h.Sources, sh)
		if tr != nil {
			tr.SpanInt(s.span, "attempts", int64(attempts))
		}
		if lerr != nil {
			endSource(tr, s, 0, lerr)
			return lerr
		}
		if !s.n.Shared && sh.Status == "ok" && sh.Mode == "stale" && d.platform.LastGood != nil {
			// Only a stale source reads its snapshot back. The decoded
			// table is immutable, so the snapshot holds it as it is.
			d.platform.LastGood.Put(d.Name, name, s.t)
		}
		if !s.lazy {
			endSource(tr, s, s.t.Len(), nil)
		}
	}
	exec := &batch.Executor{Parallelism: d.platform.Parallelism, Optimize: d.platform.Optimize, Plan: d.runPlan, Tracer: tr, TraceParent: runSpan, Columnar: d.platform.Columnar}
	if d.platform.NewRunBudget != nil {
		// One budget covers the whole run: DAG nodes and widget
		// endpoint pipelines all charge the same accountant, stage by
		// stage, through the engine's one stage runner.
		exec.Budget = d.platform.NewRunBudget()
	}
	var sigs map[string]string
	if d.platform.Cache != nil && h.Status != "degraded" {
		// A degraded run neither reads nor fills the node cache: a
		// source is keyed by its payload, and a payload that fails to
		// decode must never hit as if it had decoded.
		exec.Cached = map[string]*table.Table{}
		up := uploadDigest(d.env.Resources)
		sigs = d.Graph.Signatures(d.sigText, func(name string) string { return src(name).key(up) })
		for _, name := range d.Graph.Order {
			n := d.Graph.Nodes[name]
			if n.IsSource() || n.Def.Uncached() {
				continue
			}
			if e, ok := d.platform.Cache.Get(d.Name + "\x00" + name); ok && e.sig == sigs[name] {
				exec.Cached[name] = e.t
			}
		}
	}
	// The executor decodes a lazy source when a node that runs reads it.
	sources := make(map[string]*table.Table, len(srcs))
	for i := range srcs {
		if s := &srcs[i]; s.lazy {
			if exec.Lazy == nil {
				exec.Lazy = map[string]batch.Decoder{}
			}
			exec.Lazy[s.n.Name] = d.decoder(s, tr)
		} else if s.t != nil {
			sources[s.n.Name] = s.t
		}
	}
	res, err := exec.RunContext(ctx, d.Graph, d.env, sources)
	if res != nil {
		// Keep the partial result even on failure: Stats.Failures carries
		// per-node errors (and panic stacks) for /stats and the trace.
		d.result = res
	}
	if err != nil {
		return fmt.Errorf("dashboard %s: %w", d.Name, err)
	}
	if sigs != nil {
		for _, name := range d.Graph.Order {
			n := d.Graph.Nodes[name]
			// `cache: off` opts a data object out of cross-run
			// memoization — for side-effecting or time-sensitive flows.
			// A hit is already held under this signature, and an inline
			// node has no table to keep.
			if _, hit := exec.Cached[name]; n.IsSource() || n.Def.Uncached() || hit {
				continue
			}
			if t, ok := res.Tables[name]; ok {
				d.platform.Cache.Put(d.Name+"\x00"+name, cachedNode{sigs[name], t})
			}
		}
	}
	// Publish shared sinks (§3.4.1 group access).
	for _, name := range d.Graph.Published() {
		t, ok := res.Table(name)
		if !ok {
			return fmt.Errorf("dashboard %s: published object D.%s was not materialized", d.Name, name)
		}
		if _, err := d.platform.Catalog.Publish(d.Name, d.Graph.Nodes[name].Def.Publish, t); err != nil {
			return err
		}
	}
	// Materialize widget endpoint data: the server prefixes run once and
	// their outputs are what crosses to the interactive context.
	d.TransferredBytes = 0
	for _, name := range d.File.WidgetOrder {
		plan, ok := d.plans[name]
		if !ok {
			continue
		}
		ins := make([]*table.Table, len(plan.inputs))
		for i, in := range plan.inputs {
			t, ok := res.Table(in)
			if !ok {
				return fmt.Errorf("dashboard %s: widget W.%s input D.%s was not materialized", d.Name, name, in)
			}
			ins[i] = t
		}
		epSpan := 0
		if tr != nil {
			epSpan = tr.StartSpan(runSpan, plan.endpointSpan)
		}
		out, _, err := exec.RunPipeline(ctx, d.env, plan.server, ins, plan.inputs, epSpan)
		if tr != nil {
			if out != nil {
				tr.SpanInt(epSpan, "rows_out", int64(out.Len()))
				tr.SpanInt(epSpan, "bytes", int64(out.SizeBytes()))
			}
			tr.EndSpan(epSpan)
		}
		if err != nil {
			return fmt.Errorf("dashboard %s: widget W.%s endpoint: %w", d.Name, name, err)
		}
		plan.endpoint = out
		d.TransferredBytes += out.SizeBytes()
		if plan.cube != nil {
			if err := plan.cube.bind(out); err != nil {
				return fmt.Errorf("dashboard %s: widget W.%s cube: %w", d.Name, name, err)
			}
		}
	}
	return d.refreshWidgets(ctx, tr, runSpan)
}

var uploadSeed = maphash.MakeSeed()

// uploadDigest is an order-free digest of a run's uploads, names and
// contents: every source's signature folds it in, so re-uploading a
// dictionary a task reads invalidates every node the run produces.
// Signatures key only this process's cache, so its seed is per process.
func uploadDigest(res map[string][]byte) (d uint64) {
	var h maphash.Hash
	h.SetSeed(uploadSeed)
	for name, b := range res {
		h.WriteString(name)
		h.WriteByte(0)
		h.Write(b)
		d += h.Sum64()
		h.Reset()
	}
	return d
}

// degradeSource applies a failed source's on_error policy. It returns
// the substitute table (stale snapshot or empty), the updated health
// record, and the error to propagate — nil when degradation absorbed
// the failure. Context errors are never degradable: a canceled run must
// fail, not silently serve fallback data.
func (d *Dashboard) degradeSource(name string, sh SourceHealth, lerr error) (*table.Table, SourceHealth, error) {
	if errors.Is(lerr, context.Canceled) || errors.Is(lerr, context.DeadlineExceeded) {
		return nil, sh, lerr
	}
	n := d.Graph.Nodes[name]
	switch sh.Mode {
	case "stale":
		if d.platform.LastGood != nil {
			if t, ok := d.platform.LastGood.Lookup(d.Name, name); ok && t.Schema().Equal(n.Schema) {
				sh.Status = "stale"
				sh.Error = lerr.Error()
				return t, sh, nil
			}
		}
		return nil, sh, fmt.Errorf("%w (on_error: stale, but no last-good snapshot for D.%s)", lerr, name)
	case "empty":
		sh.Status = "empty"
		sh.Error = lerr.Error()
		return table.New(n.Schema), sh, nil
	default:
		return nil, sh, lerr
	}
}

// recordRunMetrics feeds the platform's metrics registry (when one is
// attached) from a completed run. Metric names and labels are
// documented in docs/OBSERVABILITY.md.
func (d *Dashboard) recordRunMetrics(dur time.Duration, runErr error) {
	m := d.platform.Metrics
	if m == nil {
		return
	}
	status := "ok"
	if runErr != nil {
		status = "error"
	}
	m.CounterVec("si_runs_total", "Dashboard runs, by outcome.", "status").With(status).Inc()
	m.Histogram("si_run_duration_seconds", "End-to-end dashboard run latency.", nil).Observe(dur.Seconds())
	if d.health.Degraded() {
		m.Counter("si_runs_degraded_total", "Dashboard runs completed on fallback (stale or empty) source data.").Inc()
	}
	for _, sh := range d.health.Sources {
		if sh.Status != "ok" {
			m.CounterVec("si_sources_degraded_total", "Sources served via their on_error fallback, by fallback kind.", "mode").With(sh.Status).Inc()
		}
	}
	if runErr != nil || d.result == nil {
		return
	}
	st := &d.result.Stats
	m.Counter("si_engine_stages_total", "Executed pipeline stages.").Add(int64(st.TasksRun))
	m.Counter("si_engine_cache_hits_total", "DAG nodes served from the incremental cache.").Add(int64(len(st.CacheHits)))
	m.Counter("si_engine_sinks_skipped_total", "Dead sinks eliminated by the optimizer.").Add(int64(len(st.SkippedSinks)))
	m.Counter("si_engine_transferred_bytes_total", "Endpoint bytes shipped to the interactive context.").Add(int64(d.TransferredBytes))
	stageDur := m.Histogram("si_engine_stage_duration_seconds", "Wall time of executed pipeline stages.", nil)
	queueWait := m.Histogram("si_engine_queue_wait_seconds", "Scheduler queue wait between node readiness and execution.", nil)
	rows := m.Counter("si_engine_rows_produced_total", "Rows produced by executed pipeline stages.")
	// Labelled per-stage series: duration by (output, path) and rows by
	// output, so a dashboard can watch one pipeline stage's trajectory
	// and spot a row→columnar path flip (docs/OBSERVABILITY.md).
	stageDurVec := m.HistogramVec("si_stage_duration_seconds", "Wall time of executed pipeline stages, by output object and execution path.", nil, "output", "path")
	stageRows := m.CounterVec("si_stage_rows_total", "Rows produced by executed pipeline stages, by output object.", "output")
	for _, t := range st.Timings {
		stageDur.Observe(t.Duration.Seconds())
		queueWait.Observe(t.QueueWait.Seconds())
		rows.Add(int64(t.Rows))
		stageDurVec.With(t.Output, t.Path).Observe(t.Duration.Seconds())
		stageRows.With(t.Output).Add(int64(t.Rows))
	}
}

// recordRunHistory captures a completed run into the platform's
// flight recorder (when one is attached): the structured RunRecord
// behind `shareinsights history`, `time -compare` and
// GET /dashboards/{name}/history. Recording is best-effort — a
// durability failure degrades history, never the run.
func (d *Dashboard) recordRunHistory(dur time.Duration, runErr error) {
	rec := d.platform.History
	if rec == nil {
		return
	}
	h := d.health
	run := &history.RunRecord{
		Dashboard:  d.Name,
		FlowHash:   d.flowHash,
		DurationUS: dur.Microseconds(),
		Status:     h.Status,
		Error:      h.Error,
		Retries:    h.Retries,
	}
	for _, sh := range h.Sources {
		if sh.Status != "ok" {
			run.DegradedSources = append(run.DegradedSources, sh.Name+":"+sh.Status)
		}
	}
	if d.platform.Connectors != nil {
		for _, st := range d.platform.Connectors.Breakers().States() {
			if st != resilience.Closed {
				run.OpenBreakers++
			}
		}
	}
	if runErr == nil && d.result != nil {
		st := &d.result.Stats
		run.TasksRun = st.TasksRun
		run.CacheHits = len(st.CacheHits)
		run.SkippedSinks = len(st.SkippedSinks)
		run.Stages = StageRecords(st.Timings)
	}
	rec.Record(run)
}

// StageRecords is timings as the flight recorder stores them and the REST
// API encodes them.
func StageRecords(timings []StageTiming) []history.StageRecord {
	out := make([]history.StageRecord, 0, len(timings))
	for _, t := range timings {
		out = append(out, history.StageRecord{
			Output: t.Output, Stage: t.Stage, RowsIn: t.RowsIn, Rows: t.Rows,
			DurationUS: t.Duration.Microseconds(), QueueWaitUS: t.QueueWait.Microseconds(),
			Path: t.Path, Plan: t.Plan,
		})
	}
	return out
}

// runSource is one source of a run: what its fetch returned (a payload,
// or a shared catalog table) and, once decoded, its table.
type runSource struct {
	n       *dag.Node
	payload []byte
	t       *table.Table
	span    int
	// upload marks a data: source, whose payload is among the uploads.
	upload bool
	// lazy marks a source whose payload the platform holds (an upload or
	// a mem: payload) and whose table nothing but the run's nodes reads:
	// the executor decodes it (decoder) only when a node that runs reads
	// it, and no table of it outlives the read.
	lazy bool
	// decoded marks a lazy source the run has decoded.
	decoded bool
}

// key is the source's part of its signature: the run's upload digest up,
// which a task reading an upload depends on, folded with its payload's
// hash (a data: source's payload is one of the uploads) or, for a shared
// source, its catalog table's fingerprint.
func (s *runSource) key(up uint64) string {
	switch {
	case s.upload:
		return strconv.FormatUint(up, 16)
	case s.payload != nil:
		return strconv.FormatUint(up^maphash.Bytes(uploadSeed, s.payload), 16)
	}
	return s.t.Fingerprint() + strconv.FormatUint(up, 16)
}

// fetchSource fetches one source: a shared catalog object resolves to
// its table, a data:-scheme source to its upload, and any other source
// through the connector registry (with its fetch span when tracing). It
// returns the number of connector fetch attempts (1 for non-connector
// sources), and marks the source lazy when the platform holds its
// payload.
func (d *Dashboard) fetchSource(ctx context.Context, s *runSource, tr obs.Tracer) (int, error) {
	n := s.n
	if n.Shared {
		obj, ok := d.platform.Catalog.Resolve(n.Name)
		if !ok {
			return 1, fmt.Errorf("dashboard %s: shared data object %q disappeared from the catalog", d.Name, n.Name)
		}
		if tr != nil {
			tr.SpanFlag(s.span, "shared")
		}
		s.t = obj.Data
		return 1, nil
	}
	// Sources in the dashboard's data folder (§4.3.2: uploaded files
	// "can be referred in the data object configuration") resolve
	// from the compile-time resources under the data: scheme.
	if src, ok := strings.CutPrefix(n.Def.Prop("source"), "data:"); ok || n.Def.Prop("protocol") == "data" {
		if !ok {
			src = n.Def.Prop("source")
		}
		payload, found := d.env.Resource(src)
		if !found {
			return 1, fmt.Errorf("dashboard %s: D.%s: no uploaded data file %q", d.Name, n.Name, src)
		}
		s.payload, s.upload, s.lazy = payload, true, true
		return 1, nil
	}
	payload, stats, err := d.platform.Connectors.Fetch(ctx, n.Def, tr, s.span)
	if err != nil {
		return stats.Attempts, fmt.Errorf("dashboard %s: %w", d.Name, err)
	}
	s.payload, s.lazy = payload, stats.Protocol == "mem"
	return stats.Attempts, nil
}

// decoder is lazy source s's batch.Decoder, under the run plan's offer
// and the executor's push. The run's decode of it is traced under its
// span, which it ends; a decode after that (Result.Table reads one anew)
// traces and records nothing, so Result.Table may be called from any
// goroutine. A streamed decode its run declines is no decode of the
// run's: the run decodes the source whole after it.
func (d *Dashboard) decoder(s *runSource, tr obs.Tracer) batch.Decoder {
	skip := d.skipColumns(s.n.Name)
	return func(push func(*colstore.Batch) error) (*table.Table, error) {
		pd := connector.Pushdown{SkipColumns: skip, Push: push}
		if s.decoded {
			t, _, err := d.platform.Connectors.DecodePushdown(s.n.Def, s.n.Schema, s.payload, pd, nil, 0)
			return t, err
		}
		t, res, err := d.platform.Connectors.DecodePushdown(s.n.Def, s.n.Schema, s.payload, pd, tr, s.span)
		if errors.Is(err, colstore.ErrDeclined) {
			return nil, err
		}
		if s.decoded = true; res.Streamed && err == nil && tr != nil {
			tr.SpanFlag(s.span, "streamed")
		}
		endSource(tr, s, res.Rows, err)
		return t, err
	}
}

// skipColumns is the run plan's projection offer to source name: the
// columns no reader reads, which its decode need not parse.
func (d *Dashboard) skipColumns(name string) []string {
	if np := d.runPlan.Node(name); np != nil && np.Pushdown != nil {
		return np.Pushdown.SkipColumns
	}
	return nil
}

// endSource closes s's span: its rows out, unread (rows < 0) when the
// run never decoded it, or error.
func endSource(tr obs.Tracer, s *runSource, rows int, err error) {
	switch {
	case tr == nil:
		return
	case err != nil:
		tr.SpanFlag(s.span, "error")
	case rows < 0:
		tr.SpanFlag(s.span, "unread")
	default:
		tr.SpanInt(s.span, "rows_out", int64(rows))
	}
	tr.EndSpan(s.span)
	s.span = 0
}

// RefreshWidgets re-evaluates every widget's interaction pipeline
// against the current selections — what the generated dashboard does in
// the browser whenever a selection changes.
func (d *Dashboard) RefreshWidgets() error {
	d.beginInteraction()
	defer d.interact.Unlock()
	return d.refreshWidgets(context.Background(), d.Tracer(), 0)
}

func (d *Dashboard) refreshWidgets(ctx context.Context, tr obs.Tracer, parent int) error {
	for _, name := range d.File.WidgetOrder {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dashboard %s: %w", d.Name, err)
		}
		if err := d.refreshWidget(ctx, name, tr, parent); err != nil {
			return err
		}
	}
	return nil
}

func (d *Dashboard) refreshWidget(ctx context.Context, name string, tr obs.Tracer, parent int) (err error) {
	// Interaction pipelines run user-extension operators too; a panic
	// there must fail the refresh, not the process.
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("dashboard %s: widget W.%s: %w", d.Name, name,
				&batch.PanicError{Stage: "widget W." + name, Value: fmt.Sprint(v), Stack: string(debug.Stack())})
		}
	}()
	plan, ok := d.plans[name]
	if !ok {
		return nil // static or layout widget
	}
	span := 0
	if tr != nil {
		span = tr.StartSpan(parent, plan.renderSpan)
		defer tr.EndSpan(span)
	}
	inst := d.widgets[name]
	if plan.cube != nil {
		if tr != nil {
			tr.SpanFlag(span, "cube")
		}
		if plan.cube.c != nil {
			plan.cube.c.SetTracer(tr, span)
		}
		out, err := plan.cube.refresh(d.env)
		if err != nil {
			return fmt.Errorf("dashboard %s: widget W.%s cube interaction: %w", d.Name, name, err)
		}
		if tr != nil {
			tr.SpanInt(span, "rows_out", int64(out.Len()))
		}
		return inst.Bind(out)
	}
	cur, err := plan.endpoint, error(nil) // no interaction stages: bound as is, nothing allocated
	if len(plan.client) > 0 {
		cur, _, err = d.onDemand.RunPipeline(ctx, d.env, plan.client, []*table.Table{cur}, []string{""}, 0)
	}
	if pe, ok := err.(*batch.PanicError); ok {
		pe.Stage = "widget W." + name
		return fmt.Errorf("dashboard %s: widget W.%s: %w", d.Name, name, pe)
	}
	if err != nil {
		return fmt.Errorf("dashboard %s: widget W.%s interaction: %w", d.Name, name, err)
	}
	if tr != nil && cur != nil {
		tr.SpanInt(span, "rows_out", int64(cur.Len()))
	}
	return inst.Bind(cur)
}

// Select records a selection on a widget and refreshes the widgets whose
// interaction pipelines read it. This is the §3.5.1 interaction path:
// "selection of a project in the bubble widget reflects the project
// statistics at the right", with the propagation derived from the flow
// file rather than event handlers.
func (d *Dashboard) Select(widgetName string, values ...string) error {
	return d.selectOn(widgetName, func(inst *widget.Instance) { inst.Select(values...) })
}

// SelectRange records an interval selection (sliders).
func (d *Dashboard) SelectRange(widgetName, lo, hi string) error {
	return d.selectOn(widgetName, func(inst *widget.Instance) { inst.SelectRange(lo, hi) })
}

// selectOn sets a widget's selection as one interaction and refreshes
// the widgets that read it.
func (d *Dashboard) selectOn(widgetName string, set func(*widget.Instance)) error {
	inst, ok := d.widgets[widgetName]
	if !ok {
		return fmt.Errorf("dashboard %s: no widget W.%s", d.Name, widgetName)
	}
	d.beginInteraction()
	defer d.interact.Unlock()
	set(inst)
	for _, name := range d.Dependents(widgetName) {
		if err := d.refreshWidget(context.Background(), name, d.Tracer(), 0); err != nil {
			return err
		}
	}
	return nil
}

// beginInteraction locks d.interact for the caller and drops the last interaction's spans.
func (d *Dashboard) beginInteraction() {
	d.interact.Lock()
	if d.tracer != nil {
		d.tracer.Truncate(d.runSpans)
	}
}

// Dependents lists the widgets that react to selections on widgetName.
func (d *Dashboard) Dependents(widgetName string) []string {
	var out []string
	for _, name := range d.File.WidgetOrder {
		plan, ok := d.plans[name]
		if !ok {
			continue
		}
		for _, dep := range plan.interactsWith {
			if dep == widgetName {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// AdhocQuery answers the REST data API's path query of §4.4:
// groupby/<column>/<aggregate>/<column> over an endpoint data object.
func (d *Dashboard) AdhocQuery(dataset, groupCol, aggOp, aggCol string) (*table.Table, error) {
	t, ok := d.Endpoint(dataset)
	if !ok {
		return nil, fmt.Errorf("dashboard %s: no endpoint data object %q", d.Name, dataset)
	}
	spec := &task.GroupBySpec{
		GroupBy: []string{groupCol},
		Aggs:    []task.AggSpec{{Operator: aggOp, ApplyOn: aggCol, OutField: aggOp + "_" + aggCol}},
	}
	if aggOp == "count" && aggCol == "" {
		spec.Aggs = []task.AggSpec{{Operator: "count", OutField: "count"}}
	}
	out, _, err := d.onDemand.RunPipeline(context.Background(), d.env, []task.Spec{spec}, []*table.Table{t}, []string{dataset}, 0)
	return out, err
}

// EndpointNames lists all endpoint data objects plus widget endpoints,
// for the /ds listing.
func (d *Dashboard) EndpointNames() []string {
	names := d.Graph.Endpoints()
	sort.Strings(names)
	return names
}

// Env exposes the dashboard's task environment (benchmarks and the
// server reuse it).
func (d *Dashboard) Env() *task.Env { return d.env }
