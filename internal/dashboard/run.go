package dashboard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/resilience"
	"shareinsights/internal/table"
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
	d.pushedFilters = map[string]bool{}
	sources := map[string]*table.Table{}
	for _, name := range d.Graph.Sources() {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dashboard %s: %w", d.Name, cerr)
		}
		n := d.Graph.Nodes[name]
		srcSpan := 0
		if tr != nil {
			srcSpan = tr.StartSpan(runSpan, n.SpanName())
		}
		t, attempts, lerr := d.loadSource(ctx, name, tr, srcSpan)
		sh := SourceHealth{Name: name, Status: "ok", Mode: n.Def.OnError(), Attempts: attempts}
		if attempts > 1 {
			h.Retries += attempts - 1
		}
		if lerr != nil {
			t, sh, lerr = d.degradeSource(name, sh, lerr)
			if sh.Status != "ok" {
				h.Status = "degraded"
				if tr != nil {
					tr.SpanFlag(srcSpan, "degraded")
				}
			}
		}
		if tr != nil {
			if t != nil {
				tr.SpanInt(srcSpan, "rows_out", int64(t.Len()))
			}
			tr.SpanInt(srcSpan, "attempts", int64(attempts))
			if lerr != nil {
				tr.SpanFlag(srcSpan, "error")
			}
			tr.EndSpan(srcSpan)
		}
		h.Sources = append(h.Sources, sh)
		if lerr != nil {
			return lerr
		}
		if !n.Shared && sh.Status == "ok" && d.platform.LastGood != nil {
			// Snapshot a shallow clone: the live table's Rows() slice is
			// handed to the engine and may be sorted or grown in place,
			// which must not retroactively corrupt the last-good copy.
			d.platform.LastGood.Put(d.Name, name, t.CloneShallow())
		}
		sources[name] = t
	}
	exec := &batch.Executor{Parallelism: d.platform.Parallelism, Optimize: d.platform.Optimize, Plan: d.runPlan, Tracer: tr, TraceParent: runSpan, Columnar: d.platform.Columnar}
	if d.platform.NewRunBudget != nil {
		// One budget covers the whole run: DAG nodes and widget
		// endpoint pipelines all charge the same accountant, stage by
		// stage, through the engine's one stage runner.
		exec.Budget = d.platform.NewRunBudget()
	}
	var sigs map[string]string
	if d.platform.Cache != nil {
		exec.Cached = map[string]*table.Table{}
		sigs = d.Graph.Signatures(d.sigText, func(name string) string {
			if t, ok := sources[name]; ok {
				return t.Fingerprint()
			}
			return ""
		})
		for _, name := range d.Graph.Order {
			n := d.Graph.Nodes[name]
			if n.IsSource() || n.Def.Uncached() {
				continue
			}
			if t, ok := d.platform.Cache.lookup(d.Name, name, sigs[name]); ok {
				exec.Cached[name] = t
			}
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
	if d.platform.Cache != nil {
		for _, name := range d.Graph.Order {
			n := d.Graph.Nodes[name]
			// `cache: off` opts a data object out of cross-run
			// memoization — for side-effecting or time-sensitive flows.
			if n.IsSource() || n.Def.Uncached() {
				continue
			}
			if t, ok := res.Table(name); ok {
				d.platform.Cache.store(d.Name, name, sigs[name], t)
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
				// Serve a shallow clone so engine-side mutation of the
				// served table cannot corrupt the snapshot either.
				return t.CloneShallow(), sh, nil
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
		run.Stages = make([]history.StageRecord, 0, len(st.Timings))
		for _, t := range st.Timings {
			// A filter whose predicate the connector applied at fetch
			// sees pre-filtered rows: PushedDown marks the record so the
			// profile keeps the genuine selectivity the pushdown was
			// justified by (row counts and duration are still real
			// observations).
			run.Stages = append(run.Stages, history.StageRecord{
				Output: t.Output, Stage: t.Stage, RowsIn: t.RowsIn, Rows: t.Rows,
				DurationUS: t.Duration.Microseconds(), QueueWaitUS: t.QueueWait.Microseconds(),
				Path: t.Path, Plan: t.Plan, PushedDown: d.pushedFilters[dag.HintKey(t.Output, t.Stage)],
			})
		}
	}
	rec.Record(run)
}

// loadSource materializes one source data object: shared catalog
// objects resolve directly; data:-scheme sources decode uploaded
// payloads and everything else goes through the connector registry
// (with fetch/decode spans when tracing), both under the plan's
// pushdown offer. The int is the number of connector fetch attempts (1
// for non-connector sources).
func (d *Dashboard) loadSource(ctx context.Context, name string, tr obs.Tracer, srcSpan int) (*table.Table, int, error) {
	n := d.Graph.Nodes[name]
	if n.Shared {
		obj, ok := d.platform.Catalog.Resolve(name)
		if !ok {
			return nil, 1, fmt.Errorf("dashboard %s: shared data object %q disappeared from the catalog", d.Name, name)
		}
		if tr != nil {
			tr.SpanFlag(srcSpan, "shared")
		}
		return obj.Data, 1, nil
	}
	// The plan's pushdown offer (when one exists) goes to whichever path
	// loads the source: the connector or format applies what it can and
	// declines the rest in-band — same fetch, same single decode, same
	// retry accounting either way, and the consumer pipeline re-applies
	// the predicate regardless.
	var pd connector.Pushdown
	consumer := ""
	if np := d.runPlan.Node(name); np != nil && np.Pushdown != nil {
		pd = connector.Pushdown{Predicate: np.Pushdown.Predicate, SkipColumns: np.Pushdown.SkipColumns}
		consumer = np.Pushdown.Consumer
	}
	var (
		t        *table.Table
		res      connector.PushdownResult
		err      error
		attempts = 1
	)
	// Sources in the dashboard's data folder (§4.3.2: uploaded files
	// "can be referred in the data object configuration") resolve
	// from the compile-time resources under the data: scheme.
	if src, ok := strings.CutPrefix(n.Def.Prop("source"), "data:"); ok || n.Def.Prop("protocol") == "data" {
		if !ok {
			src = n.Def.Prop("source")
		}
		payload, found := d.env.Resource(src)
		if !found {
			return nil, 1, fmt.Errorf("dashboard %s: D.%s: no uploaded data file %q", d.Name, name, src)
		}
		t, res, err = d.platform.Connectors.DecodePushdown(n.Def, n.Schema, payload, pd)
	} else {
		var stats connector.LoadStats
		t, stats, res, err = d.platform.Connectors.LoadPushdownContext(ctx, n.Def, n.Schema, pd, tr, srcSpan)
		attempts = stats.Attempts
	}
	if err != nil {
		return nil, attempts, fmt.Errorf("dashboard %s: %w", d.Name, err)
	}
	if res.PredicateApplied && consumer != "" {
		// The consumer's re-applied filter now sees pre-filtered
		// rows: its observed selectivity is ~1.0 by construction,
		// not evidence. Flag it so recordRunHistory keeps the real
		// profile intact (else the estimate decays toward 1, the
		// planner un-pushes, and the plan oscillates run over run).
		d.pushedFilters[dag.HintKey(consumer, "filter_by "+pd.Predicate)] = true
	}
	return t, attempts, nil
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
