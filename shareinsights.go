// Package shareinsights is a full-stack data-processing platform: one
// textual representation — the flow file — describes an entire pipeline
// from data ingestion through transformation to interactive dashboards,
// and the platform compiles and runs it end to end.
//
// It reproduces the system of Deshpande, Ray, Dixit and Agasti,
// "ShareInsights: An Unified Approach to Full-stack Data Processing"
// (SIGMOD 2015). A flow file has five sections: D (data objects), F
// (flows — Unix-pipe chains of tasks over data objects), T (task
// configurations), W (widgets, which are themselves data objects that
// interaction flows can filter by) and L (a twelve-column dashboard
// layout). See README.md for a tour and DESIGN.md for the architecture.
//
// Quick start:
//
//	p := shareinsights.NewPlatform()
//	f, err := shareinsights.ParseFlowFile("sales", flowText)
//	if err != nil { ... }
//	d, err := p.Compile(f, nil)
//	if err != nil { ... }
//	if err := d.Run(); err != nil { ... }
//	t, _ := d.Endpoint("by_region")
//	fmt.Println(t.Format(20))
//
// The package is a thin facade: the subsystems live in internal/
// packages (flowfile, task, dag, engine/batch, engine/cube, connector,
// widget, dashboard, share, server, vcs) and are re-exported here as
// type aliases so downstream code sees one coherent API.
package shareinsights

import (
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/replica"
	"shareinsights/internal/resilience"
	"shareinsights/internal/schema"
	"shareinsights/internal/server"
	"shareinsights/internal/share"
	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
	"shareinsights/internal/vcs"
)

// Core model types.
type (
	// FlowFile is a parsed flow file — the unified pipeline description.
	FlowFile = flowfile.File
	// Schema is a data object's column structure.
	Schema = schema.Schema
	// Table is a materialized data object.
	Table = table.Table
	// Row is one tuple of a Table.
	Row = table.Row
	// Value is a dynamically typed cell value.
	Value = value.V
	// ColumnarBatch is the columnar representation of a Table: typed
	// column vectors with null bitmaps, used by the batch engine's
	// vectorized execution path (docs/ENGINE.md).
	ColumnarBatch = colstore.Batch
	// ColumnVec is one typed column vector of a ColumnarBatch.
	ColumnVec = colstore.Vec
)

// ColumnarOff, as Platform.Columnar or Executor.Columnar, runs each
// stage alone through its Spec.Exec, with no fan group and no inline
// node; by default ("") each group of stages task.Kernel admits runs on
// one fan of its kernels. See docs/ENGINE.md.
const ColumnarOff = batch.ColumnarOff

// Platform services.
type (
	// Platform bundles the task registry, connectors, shared catalog and
	// engine configuration a dashboard compiles against.
	Platform = dashboard.Platform
	// Dashboard is a compiled, runnable flow file.
	Dashboard = dashboard.Dashboard
	// Catalog is the platform-wide registry of published data objects.
	Catalog = share.Catalog
	// ConnectorRegistry resolves protocols and payload formats.
	ConnectorRegistry = connector.Registry
	// ConnectorOptions configure NewConnectorRegistry.
	ConnectorOptions = connector.Options
	// TaskRegistry resolves task types, including user extensions.
	TaskRegistry = task.Registry
	// TaskEnv carries runtime context (resources, widget selections)
	// into task execution.
	TaskEnv = task.Env
	// Server exposes the development and data REST APIs.
	Server = server.Server
	// Repo versions one dashboard's flow file (branch/merge/fork).
	Repo = vcs.Repo
	// Tracer receives execution spans; see docs/OBSERVABILITY.md.
	Tracer = obs.Tracer
	// Trace collects spans into a tree (the standard Tracer).
	Trace = obs.Trace
	// MetricsRegistry holds counters, gauges and histograms and writes
	// the Prometheus text exposition.
	MetricsRegistry = obs.Registry
)

// Cost-based optimizer surfaces; see docs/OPTIMIZER.md. A Plan is what
// Dashboard.Explain returns for the next run, and what `shareinsights
// explain` and GET /dashboards/{name}/explain render.
type (
	// Plan is a compiled flow's cost-based execution plan: per-node
	// stage orders, pushdowns and path choices in topological order.
	Plan = dag.Plan
	// NodePlan is one data object's slice of a Plan.
	NodePlan = dag.NodePlan
	// PlanDecision is one optimizer rewrite with the evidence
	// (history, facts or heuristic) that justified it.
	PlanDecision = dag.Decision
	// SourcePushdown is a negotiated fetch-time rewrite: never-read
	// columns offered to the connector, which may decline (nothing
	// reads them either way).
	SourcePushdown = dag.SourcePushdown
)

// Resilience and fault tolerance; see docs/RESILIENCE.md.
type (
	// RetryPolicy configures connector retries: attempt budget,
	// full-jitter exponential backoff, per-attempt timeout.
	RetryPolicy = resilience.Policy
	// BreakerConfig configures the per-(protocol, source) circuit
	// breakers guarding connector loads.
	BreakerConfig = resilience.BreakerConfig
	// RunHealth summarizes a dashboard run: ok, degraded or error, with
	// per-source detail. Served by GET /dashboards/{name}/health.
	RunHealth = dashboard.RunHealth
	// SourceHealth is one source's outcome within a RunHealth.
	SourceHealth = dashboard.SourceHealth
	// PanicError is a recovered task panic, surfaced as a stage error.
	PanicError = batch.PanicError
	// FaultConfig configures injected connector failures for chaos
	// testing.
	FaultConfig = connector.FaultConfig
	// FaultProtocol wraps a Protocol with fault injection.
	FaultProtocol = connector.FaultProtocol
	// FaultFormat wraps a Format with fault injection.
	FaultFormat = connector.FaultFormat
)

// DefaultRetryPolicy returns the connector retry defaults (2 retries,
// 50ms base delay with full jitter, 5s max delay).
func DefaultRetryPolicy() RetryPolicy { return resilience.Defaults() }

// NewFaultProtocol wraps a protocol with configurable fault injection
// (error rates, latency, hangs, short reads) for chaos testing.
func NewFaultProtocol(inner connector.Protocol, cfg FaultConfig) *FaultProtocol {
	return connector.NewFaultProtocol(inner, cfg)
}

// NewFaultFormat wraps a payload format with fault injection.
func NewFaultFormat(inner connector.Format, cfg FaultConfig) *FaultFormat {
	return connector.NewFaultFormat(inner, cfg)
}

// NewPlatform returns a platform with the standard task library,
// connector set and an empty shared catalog, optimization enabled.
func NewPlatform() *Platform { return dashboard.NewPlatform() }

// ParseFlowFile parses flow-file source text.
func ParseFlowFile(name, src string) (*FlowFile, error) { return flowfile.Parse(name, src) }

// NewConnectorRegistry builds a connector registry; see ConnectorOptions
// for the file/mem/http configuration.
func NewConnectorRegistry(opts ConnectorOptions) *ConnectorRegistry {
	return connector.NewRegistry(opts)
}

// NewServer wraps a platform in the REST API of §4.3/§4.4.
func NewServer(p *Platform, opts ...ServerOption) *Server { return server.New(p, opts...) }

// ServerOption configures NewServer.
type ServerOption = server.Option

// NewStore opens the durable state store rooted at dataDir: WAL +
// snapshot persistence with crash recovery for dashboard repositories,
// the shared catalog and last-good source tables (docs/DURABILITY.md).
// metrics may be nil; pass the platform's registry to expose the
// si_store_* series. Attach the store with WithStore.
func NewStore(dataDir string, metrics *MetricsRegistry) (*Store, error) {
	return persist.Open(store.NewOSFS(dataDir), persist.Options{Metrics: metrics})
}

// Store is the durable state store; see NewStore.
type Store = persist.Store

// WithStore attaches a durable state store to a server.
func WithStore(st *Store) ServerOption { return server.WithStore(st) }

// Follower pulls a leader's WAL frames and maintains a replicated copy
// of its durable state (docs/REPLICATION.md); see NewFollower.
type Follower = replica.Follower

// FollowerConfig parameterizes NewFollower: leader URL, durable cursor
// filesystem, retry policy, circuit breaker and poll cadence.
type FollowerConfig = replica.Config

// NewFollower builds a WAL-shipping follower. Run its pull loop with
// Run, then serve the replicated state via WithFollower.
func NewFollower(cfg FollowerConfig) (*Follower, error) { return replica.New(cfg) }

// WithFollower runs the server as a read-only replica of the follower's
// leader: reads serve replicated state (refused with 503 once lag
// exceeds maxLag, 0 = unbounded), writes redirect to the leader.
func WithFollower(f *Follower, maxLag time.Duration) ServerOption {
	return server.WithFollower(f, maxLag)
}

// AdmissionConfig tunes the server's front-door admission gate: global
// concurrency and queue bounds, per-tenant rate limits and quotas
// (docs/SERVING.md).
type AdmissionConfig = admission.Config

// WithAdmission installs the admission gate: a server-wide concurrency
// limit with bounded FIFO queue, load shedding (429 + Retry-After) and
// per-tenant limits keyed on the X-SI-Tenant header.
func WithAdmission(cfg AdmissionConfig) ServerOption { return server.WithAdmission(cfg) }

// WithResultCache enables the shared run-result cache: identical
// concurrent run requests collapse to one execution and repeated
// requests serve the completed result until a save, upload or publish
// invalidates it. limit bounds the entry count (<= 0 for the default).
func WithResultCache(limit int) ServerOption { return server.WithResultCache(limit) }

// NewRunBudget builds a per-run row/byte budget for Platform
// .NewRunBudget — every run charges materialized rows and bytes against
// it and fails fast when over, instead of exhausting server memory.
func NewRunBudget(maxRows, maxBytes int64) *RunBudget { return admission.NewBudget(maxRows, maxBytes) }

// RunBudget is a per-run memory budget; see NewRunBudget.
type RunBudget = admission.Budget

// EngineBudget is the engine-side accounting hook a RunBudget
// satisfies (Platform.NewRunBudget returns one per run).
type EngineBudget = batch.Budget

// NewRepo creates a flow-file repository for the branch-and-merge
// collaboration model of §4.5.1.
func NewRepo(name string) *Repo { return vcs.NewRepo(name) }

// NewCatalog creates an empty shared-object catalog.
func NewCatalog() *Catalog { return share.NewCatalog() }

// NewTrace creates an execution-trace collector; attach it to
// Platform.Tracer (every run) or Dashboard.SetTracer (one run).
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// NewMetricsRegistry creates an empty metrics registry; attach it to
// Platform.Metrics to instrument runs (the server does this itself).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
