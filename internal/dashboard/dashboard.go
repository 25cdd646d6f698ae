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
	"fmt"
	"sync"
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
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
	// Parallelism bounds how many DAG nodes the batch engine runs at
	// once; <= 0 means GOMAXPROCS.
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
	// LastGood keeps each `on_error: stale` source's last successfully
	// loaded table, which it serves when its connector fails. It lives
	// here (not on the Dashboard) to survive recompilation.
	LastGood *SourceCache
	// RunTimeout bounds every dashboard run; 0 means no platform-wide
	// deadline (callers can still pass their own via RunContext).
	RunTimeout time.Duration
	// Columnar is the batch engine's mode for every run: off runs each
	// stage alone through its Spec.Exec; empty or on runs each group of
	// stages task.Kernel admits on one fan of its kernels. See
	// docs/ENGINE.md.
	Columnar string
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

// ResultCache is the node cache: admission's bounded LRU (the run-result
// cache's type) keyed by (dashboard, node). An entry serves a run only if
// it holds the node's signature (dag.Graph.Signatures) for that run.
type ResultCache = admission.Cache[cachedNode]

type cachedNode struct {
	sig string
	t   *table.Table
}

// NewResultCache returns an empty node cache of at most 512 entries. It
// registers no metrics: the si_result_cache_* series are the run level's.
func NewResultCache() *ResultCache { return admission.NewCache[cachedNode](512, nil) }

// NewPlatform returns a platform with default services and optimization
// enabled.
func NewPlatform() *Platform {
	return &Platform{
		Tasks:      task.NewRegistry(),
		Connectors: connector.NewRegistry(connector.Options{}),
		Catalog:    share.NewCatalog(),
		Optimize:   true,
		LastGood:   NewSourceCache(),
	}
}

// widgetPlan is one widget's compiled source pipeline. The program holds
// one per widget, never run; each run binds a copy.
type widgetPlan struct {
	def *flowfile.WidgetDef
	// inputs are the source data-object names.
	inputs []string
	// server runs once in the batch context; client re-runs per
	// interaction.
	server, client []task.Spec
	// endpoint is the materialized endpoint data (after Run).
	endpoint *table.Table
	// interactsWith lists widgets whose selections this plan reads.
	interactsWith []string
	// cube is the cube-engine compilation of the client suffix, nil when
	// the pipeline shape needs the reference executor.
	cube *cubePlan
	// endpointSpan and renderSpan name its spans in a traced run.
	endpointSpan, renderSpan string
}

// StageTiming re-exports the engine's per-stage telemetry record.
type StageTiming = batch.StageTiming

// Program is the per-tip half of a compiled dashboard: what Prepare
// derives from the flow file, the platform's registries and catalog.
// Nothing mutates it once built but what its runs derive once, each
// behind a sync.Once or a compare-and-swap (stage names and kernels on
// its specs, span names on its nodes), so every run of the file may
// share it.
type Program struct {
	// Name is the dashboard name.
	Name string
	// File is the flow file; Graph is its resolve, partial when Problems
	// (what a run rejects the file for) is not empty.
	File     *flowfile.File
	Graph    *dag.Graph
	Problems []*dag.Problem

	platform    *Platform
	err         error // why no dashboard runs over the program
	flowHash    string
	hints       analyze.Hints          // static evidence for the planner
	widgetPlans map[string]*widgetPlan // copied into every run
	sigText     map[string]string      // Graph.SignatureText, sources' with their data text; nil without a node cache
	runName     string                 // its run span's name, "run <name>"
}

// Dashboard is a compiled flow file ready to run: its Program, plus one
// run's state.
type Dashboard struct {
	*Program
	env      *task.Env
	plans    map[string]*widgetPlan
	widgets  map[string]*widget.Instance
	result   *batch.Result
	tracer   *obs.Trace
	runSpans int            // tracer.Len() when the last run ended
	interact sync.RWMutex   // runs and interactions write widget state (Lock); renders read it (RLock)
	onDemand batch.Executor // interactions and ad-hoc queries: untraced, unbudgeted
	health   RunHealth
	// runPlan is the cost-based plan the last run executed (nil when the
	// optimizer is disabled or no run happened yet).
	runPlan *dag.Plan

	// TransferredBytes counts endpoint-data bytes shipped from the
	// processing context to the interactive context in the last Run.
	TransferredBytes int
}

// Compile validates and compiles a flow file against the platform: its
// program, then a dashboard over it with resources (task files by name).
func (p *Platform) Compile(f *flowfile.File, resources map[string][]byte) (*Dashboard, error) {
	prog, _ := p.Prepare(f)
	return prog.NewDashboard(resources)
}

// Prepare compiles a flow file into its program: one resolve and one
// analysis feed the hints and the widget plans, and a caller that also
// lints runs the rules over the analysis it returns.
func (p *Platform) Prepare(f *flowfile.File) (*Program, *analyze.Analysis) {
	var resolver dag.SharedResolver
	if p.Catalog != nil {
		resolver = p.Catalog.ResolveSchema
	}
	g, problems := dag.Resolve(f, p.Tasks, resolver)
	a := analyze.Analyze(g, nil)
	prog := &Program{Name: f.Name, File: f, Graph: g, Problems: problems, platform: p, widgetPlans: map[string]*widgetPlan{}}
	if prog.err = f.Validate(true); prog.err == nil && len(problems) > 0 {
		prog.err = problems[0]
	}
	for _, name := range f.WidgetOrder {
		if prog.err == nil {
			prog.widgetPlans[name], prog.err = prog.compileWidgetPlan(f.Widgets[name])
		}
	}
	if prog.err == nil {
		prog.flowHash, prog.runName = f.Hash(), "run "+f.Name
		if p.Optimize {
			prog.hints = a.Hints()
		}
		if p.Cache != nil {
			// A source's key is its payload; its detail block (format,
			// separator …) decides what the payload decodes to.
			prog.sigText = g.SignatureText()
			for _, name := range g.Sources() {
				prog.sigText[name] += string(f.AppendDataText(nil, name))
			}
		}
	}
	return prog, a
}

// Err reports why no dashboard runs over the program (nil when one can).
func (prog *Program) Err() error { return prog.err }

// NewDashboard starts one run's state over the program: a task
// environment over resources, fresh widget instances and run plans.
func (prog *Program) NewDashboard(resources map[string][]byte) (*Dashboard, error) {
	if prog.err != nil {
		return nil, prog.err
	}
	d := &Dashboard{
		Program:  prog,
		plans:    make(map[string]*widgetPlan, len(prog.widgetPlans)),
		widgets:  make(map[string]*widget.Instance, len(prog.File.WidgetOrder)),
		onDemand: batch.Executor{Columnar: prog.platform.Columnar},
	}
	d.env = &task.Env{
		Resources:   resources,
		WidgetValue: d.widgetValue,
	}
	runs := make([]widgetPlan, 0, len(prog.widgetPlans)) // one allocation for every run copy
	for _, name := range prog.File.WidgetOrder {
		inst, err := widget.NewInstance(prog.File.Widgets[name])
		if err != nil {
			return nil, err
		}
		d.widgets[name] = inst
		if compiled := prog.widgetPlans[name]; compiled != nil {
			runs = append(runs, *compiled)
			plan := &runs[len(runs)-1]
			if plan.cube != nil {
				cube := *plan.cube
				plan.cube = &cube
			}
			d.plans[name] = plan
		}
	}
	return d, nil
}

// compileWidgetPlan checks one widget's definition, then splits and
// binds its source pipeline as the graph resolved it (nil: no source).
func (prog *Program) compileWidgetPlan(def *flowfile.WidgetDef) (*widgetPlan, error) {
	if _, faults := widget.Check(def); len(faults) > 0 {
		return nil, faults[0].Err
	}
	if def.Source == nil {
		return nil, nil
	}
	src := prog.Graph.Widgets[def.Name]
	if src.Specs == nil {
		return nil, src.Problem // an undefined or misconfigured task
	}
	specs := src.Specs
	plan := &widgetPlan{def: def, endpointSpan: "widget W." + def.Name + " endpoint", renderSpan: "widget W." + def.Name + " render"}
	for _, sp := range specs {
		if f, ok := sp.(*task.FilterSpec); ok && f.SourceWidget != "" {
			plan.interactsWith = append(plan.interactsWith, f.SourceWidget)
		}
	}
	plan.inputs = src.Inputs
	if prog.platform.Optimize {
		plan.server, plan.client = dag.WidgetSource(specs)
	} else {
		plan.client = specs
	}
	// Bind the server prefix now: its output schema is the endpoint
	// schema, and binding errors should surface at compile time.
	epSchema, err := dag.BindPipeline(prog.Graph, plan.inputs, plan.server)
	if err != nil {
		return nil, fmt.Errorf("widget W.%s source: %w", def.Name, err)
	}
	// The client suffix binds against the endpoint schema.
	cur := []task.Input{{Schema: epSchema}}
	for i, sp := range plan.client {
		out, err := sp.Out(cur)
		if err != nil {
			return nil, fmt.Errorf("widget W.%s interaction stage %d (%s): %w", def.Name, i+1, task.Describe(sp), err)
		}
		cur = []task.Input{{Schema: out}}
	}
	// A qualifying client suffix re-runs on the incremental cube engine,
	// not the task chain, at each selection change; results are identical.
	plan.cube = compileCubePlan(plan.client)
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

// Result exposes the last batch execution.
func (d *Dashboard) Result() *batch.Result { return d.result }

// SetTracer attaches a trace that holds the next Run plus the latest
// interaction after it, overriding the platform's tracer; nil reverts.
func (d *Dashboard) SetTracer(tr *obs.Trace) { d.tracer = tr }

// Trace returns the trace SetTracer attached (nil when none).
func (d *Dashboard) Trace() *obs.Trace { return d.tracer }

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
func (prog *Program) FlowHash() string { return prog.flowHash }

// statsFn adapts the flight recorder's stage profiles for this flow
// revision into the planner's statistics feed, one lookup by key per
// stage. nil when the platform records no history — the planner then
// falls back to static facts and heuristics, as it does for a stage the
// recorder has no profile of.
func (prog *Program) statsFn() dag.StatsFn {
	rec := prog.platform.History
	if rec == nil {
		return nil
	}
	return func(output, stage string) (dag.StageStats, bool) {
		p, ok := rec.Profile(prog.flowHash, output, stage)
		if !ok {
			return dag.StageStats{}, false
		}
		return dag.StageStats{
			Selectivity:    p.Selectivity,
			HasSelectivity: p.SelSamples > 0,
		}, true
	}
}

// Explain returns the cost-based plan the next run of the program would
// execute (each run plans through it): decisions from observed history
// for the flow hash when it exists, static flowcheck facts otherwise,
// heuristics last, so two explains differ when runs recorded statistics
// in between. nil when the optimizer is disabled.
func (prog *Program) Explain() *dag.Plan {
	if !prog.platform.Optimize {
		return nil
	}
	return dag.Optimize(prog.Graph, prog.hints.PlanOptions(prog.statsFn()))
}

// History returns the platform's run-history recorder (nil when the
// platform records no history).
func (d *Dashboard) History() *history.Recorder { return d.platform.History }
