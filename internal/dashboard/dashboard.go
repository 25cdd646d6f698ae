// Package dashboard is the flow-file compilation service (§4.1) and the
// dashboard runtime.
//
// Compile turns a flow file into a two-part plan, exactly as the paper's
// platform splits work between execution contexts:
//
//   - the data-processing plan: the flow DAG, executed once per run by
//     the batch engine (the Pig/Spark substitute);
//   - per-widget interaction plans: each widget's source pipeline is
//     split at the first interaction-dependent task; the static prefix
//     joins the batch plan (producing the widget's endpoint data) and
//     the suffix re-runs in the interactive context on every selection
//     change, backed by the cube engine where its operations map onto
//     incremental cube groups.
//
// The split is the paper's transfer-minimizing rearrangement: only
// pre-aggregated endpoint data crosses from the processing context to
// the interactive context, and the Dashboard counts those bytes
// (TransferredBytes) so the E6 ablation can measure the saving.
package dashboard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/schema"
	"shareinsights/internal/share"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/widget"
)

// Platform bundles the services a dashboard compiles against.
type Platform struct {
	// Tasks resolves task types (platform library + user extensions).
	Tasks *task.Registry
	// Connectors loads source data objects.
	Connectors *connector.Registry
	// Catalog resolves and receives published data objects.
	Catalog *share.Catalog
	// Parallelism caps batch-engine workers; <= 0 means GOMAXPROCS.
	Parallelism int
	// Optimize enables the DAG optimizer (dead-sink elimination, filter
	// pushdown, interaction splitting). Disabling it is the E6 ablation
	// baseline: widget pipelines then run entirely in the interactive
	// context, shipping raw data objects to it.
	Optimize bool
	// Cache, when non-nil, memoizes produced data objects across runs so
	// a re-run after a flow-file edit recomputes only what the edit
	// touched (§4.5.3 quick feedback).
	Cache *ResultCache
	// LastGood keeps each source's last successfully loaded table so
	// `on_error: stale` sources can serve it when their connector fails.
	// It lives here (not on the Dashboard) to survive recompilation.
	LastGood *SourceCache
	// RunTimeout bounds every dashboard run; 0 means no platform-wide
	// deadline (callers can still pass their own via RunContext).
	RunTimeout time.Duration
	// Columnar is the batch engine's default vectorized-execution mode
	// (auto, on or off; empty means auto). A data object's `columnar:`
	// detail overrides it per node. See docs/ENGINE.md.
	Columnar string
	// UseCube routes qualifying widget-interaction pipelines through the
	// incremental cube engine instead of re-running the task chain per
	// selection change. Results are identical either way; the cube makes
	// interaction latency independent of how much data a widget watches.
	UseCube bool
	// Trace receives task-execution telemetry (feeds the Figure 31
	// platform-usage dashboard).
	Trace func(taskType string, outRows int)
	// Tracer receives structured execution spans for every run on the
	// platform (run → connector fetch → task stage → widget render).
	// nil disables tracing; per-run tracers can be set on a Dashboard
	// with SetTracer, which takes precedence. See internal/obs.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives engine counters and histograms
	// (runs, stage timings, rows produced, cache hits). The server
	// exposes it at GET /metrics.
	Metrics *obs.Registry
	// History, when non-nil, receives a structured RunRecord for every
	// completed run: the flight recorder behind `shareinsights history`,
	// `time -compare` and GET /dashboards/{name}/history. See
	// internal/obs/history and docs/OBSERVABILITY.md.
	History *history.Recorder
	// NewRunBudget, when non-nil, mints a fresh per-run output budget
	// for every dashboard run; the engine charges it as stages
	// materialize rows and bytes, and a run that exhausts the budget
	// fails instead of growing until the process OOMs. nil means
	// unlimited. See docs/SERVING.md.
	NewRunBudget func() batch.Budget
}

// NewPlatform returns a platform with default services and optimization
// enabled.
func NewPlatform() *Platform {
	return &Platform{
		Tasks:      task.NewRegistry(),
		Connectors: connector.NewRegistry(connector.Options{}),
		Catalog:    share.NewCatalog(),
		Optimize:   true,
		UseCube:    true,
		LastGood:   NewSourceCache(),
	}
}

// widgetPlan is one widget's compiled source pipeline.
type widgetPlan struct {
	def *flowfile.WidgetDef
	// inputs are the source data-object names.
	inputs []string
	// server runs once in the batch context; client re-runs per
	// interaction.
	server, client []task.Spec
	// endpointSchema is the schema crossing contexts.
	endpointSchema *schema.Schema
	// endpoint is the materialized endpoint data (after Run).
	endpoint *table.Table
	// interactsWith lists widgets whose selections this plan reads.
	interactsWith []string
	// cube is the cube-engine compilation of the client suffix, nil when
	// the pipeline shape needs the reference executor.
	cube *cubePlan
}

// StageTiming re-exports the engine's per-stage telemetry record.
type StageTiming = batch.StageTiming

// Dashboard is a compiled flow file ready to run.
type Dashboard struct {
	// Name is the dashboard name.
	Name string
	// File is the flow file.
	File *flowfile.File
	// Graph is the schema-resolved flow DAG.
	Graph *dag.Graph

	platform *Platform
	env      *task.Env
	plans    map[string]*widgetPlan
	widgets  map[string]*widget.Instance
	result   *batch.Result
	tracer   obs.Tracer
	health   RunHealth
	flowHash string
	// hints is the static-analysis evidence for the cost-based planner,
	// computed once at compile time (the flow file cannot change under a
	// compiled dashboard).
	hints analyze.Hints
	// pushedFilters marks the filter stages (dag.HintKey(output, stage))
	// whose predicate a connector applied at fetch during the current
	// run; their observed selectivities are pushdown artifacts and are
	// excluded from history evidence.
	pushedFilters map[string]bool
	// runPlan is the cost-based plan the last run executed (nil when the
	// optimizer is disabled or no run happened yet).
	runPlan *dag.Plan

	// TransferredBytes counts endpoint-data bytes shipped from the
	// processing context to the interactive context in the last Run.
	TransferredBytes int
}

// Compile validates and compiles a flow file against the platform.
// resources supplies auxiliary task files (dictionaries) by name.
func (p *Platform) Compile(f *flowfile.File, resources map[string][]byte) (*Dashboard, error) {
	if err := f.Validate(true); err != nil {
		return nil, err
	}
	var resolver dag.SharedResolver
	if p.Catalog != nil {
		resolver = p.Catalog.ResolveSchema
	}
	// The one resolve: the graph below also feeds hint extraction and the
	// widget plans, so no task is parsed and no chain bound twice.
	g, err := dag.Build(f, p.Tasks, resolver)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(f.String()))
	d := &Dashboard{
		Name:     f.Name,
		File:     f,
		Graph:    g,
		platform: p,
		plans:    map[string]*widgetPlan{},
		widgets:  map[string]*widget.Instance{},
		flowHash: hex.EncodeToString(sum[:8]),
	}
	d.env = &task.Env{
		Resources:   resources,
		Parallelism: p.Parallelism,
		Trace:       p.Trace,
		WidgetValue: d.widgetValue,
	}
	if p.Optimize {
		d.hints = analyze.OptimizerHints(g, nil)
	}
	for _, name := range f.WidgetOrder {
		def := f.Widgets[name]
		inst, err := widget.NewInstance(def)
		if err != nil {
			return nil, err
		}
		d.widgets[name] = inst
		plan, err := d.compileWidgetPlan(def)
		if err != nil {
			return nil, err
		}
		if plan != nil {
			d.plans[name] = plan
		}
	}
	return d, nil
}

// compileWidgetPlan splits and binds one widget source pipeline, as the
// graph resolved it.
func (d *Dashboard) compileWidgetPlan(def *flowfile.WidgetDef) (*widgetPlan, error) {
	if def.Source == nil {
		return nil, nil
	}
	src := d.Graph.Widgets[def.Name]
	if len(src.Specs) != len(def.Source.Tasks) {
		return nil, src.Problem // an undefined or misconfigured task
	}
	specs := src.Specs
	plan := &widgetPlan{def: def, interactsWith: widget.InteractionSources(d.File, def)}
	plan.inputs = src.Inputs
	if d.platform.Optimize {
		plan.server, plan.client = dag.WidgetSource(specs)
	} else {
		plan.client = specs
	}
	// Bind the server prefix now: its output schema is the endpoint
	// schema, and binding errors should surface at compile time.
	epSchema, err := dag.BindPipeline(d.Graph, plan.inputs, plan.server)
	if err != nil {
		return nil, fmt.Errorf("widget W.%s source: %w", def.Name, err)
	}
	plan.endpointSchema = epSchema
	// The client suffix binds against the endpoint schema.
	cur := []task.Input{{Schema: epSchema}}
	for i, sp := range plan.client {
		out, err := sp.Out(cur)
		if err != nil {
			return nil, fmt.Errorf("widget W.%s interaction stage %d (%s): %w", def.Name, i+1, task.Describe(sp), err)
		}
		cur = []task.Input{{Schema: out}}
	}
	if d.platform.UseCube {
		if cp := compileCubePlan(plan.client); cp != nil {
			if err := cp.verifySchema(epSchema, cur[0].Schema); err == nil {
				plan.cube = cp
			}
		}
	}
	return plan, nil
}

// widgetValue implements task.Env.WidgetValue over the live instances.
func (d *Dashboard) widgetValue(widgetName, column string) ([]string, bool) {
	inst, ok := d.widgets[widgetName]
	if !ok {
		return nil, false
	}
	return inst.SelectionValues(column)
}

// Widget returns a live widget instance (implements widget.RenderEnv).
func (d *Dashboard) Widget(name string) (*widget.Instance, bool) {
	w, ok := d.widgets[name]
	return w, ok
}

// Endpoint returns a materialized endpoint data object by name after
// Run: either a flow sink marked endpoint: true or a widget's endpoint
// feed.
func (d *Dashboard) Endpoint(name string) (*table.Table, bool) {
	if d.result != nil {
		if n, ok := d.Graph.Nodes[name]; ok && n.Def.Endpoint {
			t, ok := d.result.Table(name)
			return t, ok
		}
	}
	return nil, false
}

// Endpoints lists endpoint data-object names in topological order.
func (d *Dashboard) Endpoints() []string { return d.Graph.Endpoints() }

// Result exposes the last batch execution.
func (d *Dashboard) Result() *batch.Result { return d.result }

// SetTracer attaches a per-run tracer to this dashboard, overriding
// the platform's. The next Run (and subsequent widget refreshes)
// record their spans on it; nil reverts to the platform tracer.
func (d *Dashboard) SetTracer(tr obs.Tracer) { d.tracer = tr }

// Tracer returns the effective tracer: the dashboard's own if set,
// else the platform's (which may be nil — tracing disabled).
func (d *Dashboard) Tracer() obs.Tracer {
	if d.tracer != nil {
		return d.tracer
	}
	return d.platform.Tracer
}

// FlowHash identifies the compiled flow-file revision: the content
// hash run-history profiles and baselines are keyed by.
func (d *Dashboard) FlowHash() string { return d.flowHash }

// statsFn adapts the flight recorder's stage profiles for this flow
// revision into the planner's statistics feed. nil when the platform
// records no history or none exists yet for this flow hash — the
// planner then falls back to static facts and heuristics.
func (d *Dashboard) statsFn() dag.StatsFn {
	rec := d.platform.History
	if rec == nil {
		return nil
	}
	profs := rec.Profiles(d.flowHash)
	if len(profs) == 0 {
		return nil
	}
	m := make(map[string]history.StageProfile, len(profs))
	for _, p := range profs {
		m[dag.HintKey(p.Output, p.Stage)] = p
	}
	return func(output, stage string) (dag.StageStats, bool) {
		p, ok := m[dag.HintKey(output, stage)]
		if !ok {
			return dag.StageStats{}, false
		}
		return dag.StageStats{
			Selectivity:    p.Selectivity,
			HasSelectivity: p.SelSamples > 0,
			RowsIn:         p.RowsIn,
			HasRowsIn:      p.Count > 0,
			Rows:           p.Rows,
			HasRows:        p.Count > 0,
			CostUS:         p.EWMAUS,
		}, true
	}
}

// buildPlan assembles the cost-based plan for the next run: plan and
// path decisions made once, from observed history when it exists,
// static flowcheck facts otherwise, heuristics last. nil when the
// optimizer is disabled.
func (d *Dashboard) buildPlan() *dag.Plan {
	if !d.platform.Optimize {
		return nil
	}
	opts := d.hints.PlanOptions(d.statsFn())
	opts.Columnar = d.platform.Columnar
	return dag.Optimize(d.Graph, opts)
}

// Explain returns the cost-based plan the next run would execute — the
// payload behind `shareinsights explain` and
// GET /dashboards/{name}/explain. It reflects the current evidence
// (run history accumulates between calls), so two explains can differ
// when runs recorded new statistics in between. nil when the optimizer
// is disabled.
func (d *Dashboard) Explain() *dag.Plan { return d.buildPlan() }

// LastPlan returns the plan the most recent run actually executed (nil
// before the first run or with the optimizer disabled).
func (d *Dashboard) LastPlan() *dag.Plan { return d.runPlan }

// History returns the platform's run-history recorder (nil when the
// platform records no history).
func (d *Dashboard) History() *history.Recorder { return d.platform.History }
