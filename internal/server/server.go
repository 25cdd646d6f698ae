// Package server exposes the ShareInsights development and data APIs
// over HTTP — the browser-only development interface of §4.3 and the
// data API of §4.4.
//
//	PUT  /dashboards/{name}                    create/update the flow file (a VCS commit)
//	GET  /dashboards/{name}                    fetch the flow file
//	GET  /dashboards                           list dashboards
//	POST /dashboards/{name}/run                compile and run
//	GET  /dashboards/{name}/health             last run's health: status,
//	                                           degraded sources, retries
//	GET  /dashboards/{name}/html               rendered page (?device=mobile
//	                                           for the constrained rendering;
//	                                           an uploaded style.css applies)
//	GET  /dashboards/{name}/explore            data explorer (headless tabular view)
//	GET  /dashboards/{name}/ds                 endpoint data listing        (Figure 27)
//	GET  /dashboards/{name}/ds/{ds}            endpoint data rows           (Figure 28)
//	GET  /dashboards/{name}/ds/{ds}/groupby/{col}/{agg}/{vcol}  ad-hoc query (Figure 30)
//	POST /dashboards/{name}/select/{widget}    record a widget selection
//	GET  /dashboards/{name}/log                commit history
//	PUT  /dashboards/{name}/data/{file}        upload a data/dictionary file (§4.3.2)
//	GET  /dashboards/{name}/profile            §6 data-profile meta-dashboard
//	GET  /dashboards/{name}/lint               static analysis findings (docs/LINTING.md)
//	GET  /dashboards/{name}/check              findings plus inferred facts: column
//	                                           types, constants, intervals, row
//	                                           bounds, liveness (docs/TYPES.md)
//	GET  /dashboards/{name}/stats              last run's execution stats (?full=1
//	                                           for every stage timing, not just top-5)
//	GET  /dashboards/{name}/trace              last run's span tree (?format=chrome
//	                                           for trace-event JSON)
//	GET  /dashboards/{name}/history            run-history flight recorder: recent
//	                                           runs plus per-stage profiles
//	                                           (?limit=N, ?baseline=1 for the last
//	                                           run's deltas against the EWMA
//	                                           baseline; docs/OBSERVABILITY.md)
//	GET  /dashboards/{name}/explain            the cost-based plan the next run
//	                                           would execute: pushdowns, filter
//	                                           order, path choices and the
//	                                           evidence behind each decision
//	                                           (docs/OPTIMIZER.md)
//	GET  /dashboards/{name}/ops                self-hosted ops meta-dashboard
//	GET  /metrics                              Prometheus text exposition
//	GET  /shared                               the published-objects catalog
//
// Every route is instrumented (request counts, latency histograms,
// in-flight gauge) against the platform's metrics registry; see
// docs/OBSERVABILITY.md.
//
// Type-checking and execution errors surface as JSON {error: ...} bodies.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/analyze"
	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/diagnose"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/obs/ops"
	"shareinsights/internal/profile"
	"shareinsights/internal/replica"
	"shareinsights/internal/store/persist"
	"shareinsights/internal/table"
	"shareinsights/internal/vcs"
)

// Server hosts dashboards on one platform instance.
type Server struct {
	platform *dashboard.Platform
	httpm    *obs.HTTPMetrics
	store    *persist.Store // nil when running in-memory

	// follower makes this server a read-only replica serving state pulled
	// from a leader (docs/REPLICATION.md); nil on leaders.
	follower       *replica.Follower
	followerMaxLag time.Duration

	// gate and resultCache implement front-door admission control and
	// run-result sharing (docs/SERVING.md); both nil unless enabled via
	// WithAdmission / WithResultCache.
	gate        *admission.Gate
	resultCache *admission.ResultCache

	mu        sync.RWMutex
	repos     map[string]*vcs.Repo
	live      map[string]*dashboard.Dashboard
	traces    map[string]*obs.Trace        // dashboard -> last run's trace
	data      map[string]map[string][]byte // dashboard -> uploaded files
	uploadRev map[string]int               // dashboard -> upload revision (result-cache keys)
	author    func(*http.Request) string
}

// Option configures a Server at construction.
type Option func(*Server)

// WithStore attaches a durable state store (docs/DURABILITY.md): the
// recovered dashboard repositories become the server's, the platform's
// catalog and last-good cache are seeded from recovery, and every later
// mutation is journaled write-ahead. Without this option all state is
// in-memory, as before.
func WithStore(st *persist.Store) Option {
	return func(s *Server) { s.store = st }
}

// New builds a server around a platform. The incremental-execution
// cache is enabled if the platform has none: the editor's save-and-rerun
// loop is exactly the workload it exists for. Likewise a metrics
// registry is attached if the platform has none, so GET /metrics always
// serves engine and HTTP telemetry.
func New(p *dashboard.Platform, opts ...Option) *Server {
	if p.Cache == nil {
		p.Cache = dashboard.NewResultCache()
	}
	if p.Metrics == nil {
		p.Metrics = obs.NewRegistry()
	}
	if p.LastGood == nil {
		p.LastGood = dashboard.NewSourceCache()
	}
	// Connector retries and breaker transitions surface in GET /metrics.
	p.Connectors.SetMetrics(p.Metrics)
	p.Catalog.SetMetrics(p.Metrics)
	s := &Server{
		platform:  p,
		httpm:     obs.NewHTTPMetrics(p.Metrics),
		repos:     map[string]*vcs.Repo{},
		live:      map[string]*dashboard.Dashboard{},
		traces:    map[string]*obs.Trace{},
		data:      map[string]map[string][]byte{},
		uploadRev: map[string]int{},
		author: func(r *http.Request) string {
			if u := r.Header.Get("X-User"); u != "" {
				return u
			}
			return "anonymous"
		},
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.follower != nil {
		if s.store != nil {
			panic("server: WithStore and WithFollower are mutually exclusive")
		}
		// Serve the replicated state directly: the follower's components
		// are internally locked, so the pull loop can keep applying frames
		// while handlers read.
		comps := s.follower.Components()
		p.Catalog = comps.Catalog()
		p.Catalog.SetMetrics(p.Metrics)
		p.LastGood = comps.Cache()
		p.History = comps.History()
		s.repos = comps.Repos()
		comps.OnRepos(func(repos map[string]*vcs.Repo) {
			s.mu.Lock()
			s.repos = repos
			s.mu.Unlock()
		})
	}
	// Every server records run history; a durable store replaces this
	// memory-only recorder with its journaled one in WirePlatform.
	if p.History == nil {
		p.History = history.NewRecorder(history.Options{Metrics: p.Metrics})
	}
	if s.store != nil {
		// Seed the platform with recovered state and start journaling.
		// WirePlatform only fails on recovered state that cannot be
		// re-applied, which recovery itself would already have rejected.
		if err := s.store.WirePlatform(p); err != nil {
			panic(fmt.Sprintf("server: wire recovered state: %v", err))
		}
		s.repos = s.store.Repos()
	}
	return s
}

// newRepoLocked creates a repository for a dashboard and, when a store
// is attached, adopts it into the journal before first use. Callers
// hold s.mu.
func (s *Server) newRepoLocked(name string) (*vcs.Repo, error) {
	repo := vcs.NewRepo(name)
	if s.store != nil {
		if err := s.store.AdoptRepo(repo); err != nil {
			return nil, err
		}
	}
	s.repos[name] = repo
	return repo, nil
}

// Handler returns the HTTP handler with all routes installed, each
// wrapped in the metrics middleware under its route pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.httpm.Instrument(pattern, h))
	}
	handle("GET /dashboards", s.handleList)
	handle("PUT /dashboards/{name}", s.handlePut)
	handle("GET /dashboards/{name}", s.handleGet)
	// Expensive routes — the ones that execute flows or pipelines — go
	// through the admission gate (a no-op middleware until WithAdmission
	// installs one). Cheap metadata reads and mutations stay ungated so
	// saves and uploads land even under shedding.
	handle("POST /dashboards/{name}/run", s.admit(s.handleRun))
	handle("GET /dashboards/{name}/html", s.admit(s.handleHTML))
	handle("GET /dashboards/{name}/explore", s.admit(s.handleExplore))
	handle("GET /dashboards/{name}/ds", s.handleDatasets)
	handle("GET /dashboards/{name}/ds/{ds}", s.handleDataset)
	handle("GET /dashboards/{name}/ds/{ds}/groupby/{col}/{agg}/{vcol}", s.admit(s.handleAdhoc))
	handle("POST /dashboards/{name}/select/{widget}", s.admit(s.handleSelect))
	handle("GET /dashboards/{name}/log", s.handleLog)
	handle("PUT /dashboards/{name}/data/{file}", s.handleUpload)
	handle("GET /dashboards/{name}/profile", s.handleProfile)
	handle("GET /dashboards/{name}/lint", s.handleLint)
	handle("GET /dashboards/{name}/check", s.handleCheck)
	handle("GET /dashboards/{name}/health", s.handleHealth)
	handle("GET /dashboards/{name}/stats", s.handleStats)
	handle("GET /dashboards/{name}/trace", s.handleTrace)
	handle("GET /dashboards/{name}/history", s.handleHistory)
	handle("GET /dashboards/{name}/explain", s.handleExplain)
	handle("GET /dashboards/{name}/ops", s.handleOps)
	handle("GET /shared", s.handleShared)
	handle("GET /dashboards/{name}/edit", s.handleEditor)
	handle("GET /health", s.handleServerHealth)
	mux.Handle("GET /metrics", s.platform.Metrics.Handler())
	s.vcsRoutes(mux)
	s.discoveryRoutes(mux)
	if s.store != nil {
		s.replicaRoutes(handle)
	}
	if s.follower != nil {
		return s.followerGuard(mux)
	}
	return mux
}

func jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func jsonOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.repos))
	for n := range s.repos {
		names = append(names, n)
	}
	sort.Strings(names)
	jsonOK(w, map[string]any{"dashboards": names})
}

// checkParses rejects content that does not parse and validate — every
// save path goes through it, so the repository only ever holds loadable
// pipelines. It returns the parsed file for callers that go on to lint.
func (s *Server) checkParses(name string, body []byte) (*flowfile.File, error) {
	f, err := flowfile.Parse(name, string(body))
	if err != nil {
		return nil, err
	}
	return f, f.Validate(true)
}

// handlePut creates or updates a dashboard's flow file. The body must
// parse; parse failures reject the commit so the repository only ever
// holds loadable pipelines.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	f, err := s.checkParses(name, body)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.mu.Lock()
	repo, ok := s.repos[name]
	if !ok {
		if repo, err = s.newRepoLocked(name); err != nil {
			s.mu.Unlock()
			jsonError(w, http.StatusInternalServerError, err)
			return
		}
	}
	hash, err := repo.Commit(vcs.DefaultBranch, s.author(r), "save "+name, body)
	s.mu.Unlock()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	s.invalidateResults(name)
	resp := map[string]any{"dashboard": name, "commit": hash}
	// The save already passed validation, so lint findings here are
	// advisory: the commit stands either way, the editor just shows them.
	if report, _ := s.lintFile(f); len(report.Findings) > 0 {
		resp["lint"] = report.Findings
	}
	jsonOK(w, resp)
}

// lintFile runs the static analyzer against the platform's registries
// and shared catalog, returning the report and the inferred per-object
// facts.
func (s *Server) lintFile(f *flowfile.File) (*analyze.Report, *flowcheck.Facts) {
	opts := analyze.Options{Tasks: s.platform.Tasks, Connectors: s.platform.Connectors}
	if s.platform.Catalog != nil {
		opts.Shared = s.platform.Catalog.ResolveSchema
		opts.Published = func() []analyze.PublishedObject {
			var out []analyze.PublishedObject
			for _, obj := range s.platform.Catalog.Objects() {
				out = append(out, analyze.PublishedObject{Name: obj.Name, Dashboard: obj.Dashboard})
			}
			return out
		}
	}
	return analyze.LintWithFacts(f, opts)
}

// lintTarget loads and parses the latest committed flow file of a named
// dashboard for the analysis endpoints; on failure it writes the error
// response and returns nil.
func (s *Server) lintTarget(w http.ResponseWriter, name string) *flowfile.File {
	s.mu.RLock()
	repo, ok := s.repos[name]
	s.mu.RUnlock()
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no dashboard %q", name))
		return nil
	}
	content, err := repo.Content(vcs.DefaultBranch)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return nil
	}
	f, err := flowfile.Parse(name, string(content))
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return nil
	}
	return f
}

// handleLint re-analyzes the latest committed flow file on demand —
// the editor's "check my dashboard" button, no execution involved.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f := s.lintTarget(w, name)
	if f == nil {
		return
	}
	report, _ := s.lintFile(f)
	errs, warns, infos := report.Counts()
	jsonOK(w, map[string]any{
		"dashboard": name,
		"findings":  report.Findings,
		"errors":    errs,
		"warnings":  warns,
		"infos":     infos,
	})
}

// handleCheck is handleLint plus the typed summary: the flowcheck facts
// (per-object column types, constants, value intervals, cardinality
// bounds, filter verdicts and liveness) the analysis inferred. The
// structure is the stable flowcheck.Facts contract (docs/TYPES.md).
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f := s.lintTarget(w, name)
	if f == nil {
		return
	}
	report, facts := s.lintFile(f)
	jsonOK(w, map[string]any{
		"dashboard": name,
		"findings":  report.Findings,
		"facts":     facts,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	repo, ok := s.repos[name]
	s.mu.RUnlock()
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no dashboard %q", name))
		return
	}
	content, err := repo.Content(vcs.DefaultBranch)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(content)
}

// stageJSON is one stage timing in API responses.
type stageJSON struct {
	Output      string `json:"output"`
	Stage       string `json:"stage"`
	RowsIn      int    `json:"rows_in"`
	Rows        int    `json:"rows"`
	DurationUS  int64  `json:"duration_us"`
	QueueWaitUS int64  `json:"queue_wait_us"`
	// Path is the execution path that ran the stage: "row" or
	// "columnar" (docs/ENGINE.md).
	Path string `json:"path"`
	// Plan summarizes the optimizer rules applied to the stage's node,
	// "as-written" when none ran (docs/OPTIMIZER.md); empty when the
	// run executed without a cost-based plan.
	Plan string `json:"plan,omitempty"`
}

func stagesJSON(timings []dashboard.StageTiming) []stageJSON {
	out := make([]stageJSON, 0, len(timings))
	for _, st := range timings {
		out = append(out, stageJSON{
			Output: st.Output, Stage: st.Stage, RowsIn: st.RowsIn, Rows: st.Rows,
			DurationUS: st.Duration.Microseconds(), QueueWaitUS: st.QueueWait.Microseconds(),
			Path: st.Path, Plan: st.Plan,
		})
	}
	return out
}

// failureJSON is one failed node pipeline in API responses.
type failureJSON struct {
	Output string `json:"output"`
	Err    string `json:"error"`
	Panic  bool   `json:"panic,omitempty"`
	Stack  string `json:"stack,omitempty"`
}

// statsBody assembles a run's execution statistics. full includes every
// stage timing; otherwise only the five slowest. A failed run may have
// no result at all — only health survives then.
func statsBody(name string, d *dashboard.Dashboard, full bool) map[string]any {
	h := d.Health()
	body := map[string]any{
		"dashboard": name,
		"status":    h.Status,
		"retries":   h.Retries,
	}
	res := d.Result()
	if res == nil {
		return body
	}
	st := res.Stats
	body["endpoints"] = d.EndpointNames()
	body["tasks_run"] = st.TasksRun
	body["transferred_bytes"] = d.TransferredBytes
	body["skipped_sinks"] = st.SkippedSinks
	body["cache_hits"] = st.CacheHits
	body["slowest_stages"] = stagesJSON(st.Slowest(5))
	if len(st.Failures) > 0 {
		fs := make([]failureJSON, 0, len(st.Failures))
		for _, f := range st.Failures {
			fs = append(fs, failureJSON{Output: f.Output, Err: f.Err, Panic: f.Panic, Stack: f.Stack})
		}
		body["failures"] = fs
	}
	if full {
		body["timings"] = stagesJSON(st.Timings)
	}
	return body
}

// handleRun compiles the latest committed flow file and executes it.
// The request's context rides along: a client disconnect or deadline
// cancels the run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, outcome, err := s.runDashboardCached(r.Context(), name)
	if outcome != "" {
		w.Header().Set(ResultCacheHeader, outcome)
	}
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	jsonOK(w, statsBody(name, d, r.URL.Query().Get("full") == "1"))
}

// handleServerHealth is the process-level health surface. With a
// durable store attached it reports each component's recovery outcome
// (records replayed, torn tail dropped, snapshot age) and any WAL
// damage; "degraded" means a component is fail-stop on appends until
// the next snapshot repairs it.
func (s *Server) handleServerHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	dashboards := len(s.repos)
	s.mu.RUnlock()
	body := map[string]any{"status": "ok", "dashboards": dashboards}
	if s.follower != nil {
		body["durability"] = "replica"
		st := s.follower.Status()
		body["replication"] = st
		if s.follower.Degraded() || (s.followerMaxLag > 0 && s.follower.Lag() > s.followerMaxLag) {
			body["status"] = "degraded"
		}
		jsonOK(w, body)
		return
	}
	if s.store == nil {
		body["durability"] = "in-memory"
		jsonOK(w, body)
		return
	}
	body["durability"] = "durable"
	statuses := s.store.Status()
	for _, cs := range statuses {
		if cs.Damaged != "" {
			body["status"] = "degraded"
		}
	}
	body["store"] = statuses
	jsonOK(w, body)
}

// handleHealth reports the last run attempt's health: overall status
// (ok / degraded / error / never-run), per-source outcomes and retry
// totals. Unlike /stats it also covers runs that failed outright.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, err := s.liveDashboard(name)
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	h := d.Health()
	jsonOK(w, map[string]any{
		"dashboard": name,
		"status":    h.Status,
		"error":     h.Error,
		"retries":   h.Retries,
		"sources":   h.Sources,
	})
}

// handleStats reports the last run's execution statistics without
// re-running: the §6 bottleneck view. ?full=1 includes every stage
// timing, not just the top five.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, err := s.liveDashboard(name)
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	jsonOK(w, statsBody(name, d, r.URL.Query().Get("full") == "1"))
}

// handleExplain reports the cost-based plan the next run would execute:
// source pushdowns, filter order, fusion and row/columnar path choices,
// with the evidence (history, facts or heuristic) behind each decision
// (docs/OPTIMIZER.md). A dashboard that has run explains its live
// compilation, so observed selectivities inform the plan; otherwise the
// latest committed flow file is compiled — never run — on demand.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, err := s.liveDashboard(name)
	if err != nil {
		f := s.lintTarget(w, name)
		if f == nil {
			return
		}
		s.mu.RLock()
		uploads := s.data[name]
		s.mu.RUnlock()
		if d, err = s.platform.Compile(f, uploads); err != nil {
			jsonError(w, http.StatusUnprocessableEntity, diagnosed(f, err))
			return
		}
	}
	plan := d.Explain()
	if plan == nil {
		jsonError(w, http.StatusConflict, fmt.Errorf("optimizer disabled on this platform"))
		return
	}
	jsonOK(w, map[string]any{"dashboard": name, "plan": plan, "text": plan.Format()})
}

func (s *Server) runDashboard(ctx context.Context, name string) (*dashboard.Dashboard, error) {
	d, _, err := s.runDashboardCached(ctx, name)
	return d, err
}

// executeDashboard compiles and runs one parsed flow file — the
// uncached execution path runDashboardCached leads into.
func (s *Server) executeDashboard(ctx context.Context, name string, f *flowfile.File, uploads map[string][]byte) (*dashboard.Dashboard, error) {
	d, err := s.platform.Compile(f, uploads)
	if err != nil {
		return nil, diagnosed(f, err)
	}
	// Every server-side run records a span tree, served by GET
	// /dashboards/{name}/trace until the next run replaces it.
	trace := obs.NewTrace(name)
	d.SetTracer(trace)
	rerr := d.RunContext(ctx)
	// The dashboard is published even when the run failed: /health,
	// /stats and /trace must be able to explain what went wrong (stage
	// failures, panic stacks, degraded sources).
	s.mu.Lock()
	s.live[name] = d
	s.traces[name] = trace
	s.mu.Unlock()
	if rerr != nil {
		return nil, diagnosed(f, rerr)
	}
	return d, nil
}

// diagnosed rewrites a compile/run error into flow-file diagnostics so
// the editor never shows raw engine messages (§6).
func diagnosed(f *flowfile.File, err error) error {
	ds := diagnose.Diagnose(f, err)
	if len(ds) == 0 {
		return err
	}
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = d.String()
	}
	return fmt.Errorf("%s", strings.Join(lines, "; "))
}

func (s *Server) liveDashboard(name string) (*dashboard.Dashboard, error) {
	s.mu.RLock()
	d, ok := s.live[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dashboard %q has not been run", name)
	}
	return d, nil
}

func (s *Server) handleHTML(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	dev := dashboard.Desktop
	if r.URL.Query().Get("device") == "mobile" {
		dev = dashboard.Mobile
	}
	s.mu.RLock()
	css, ok := s.data[r.PathValue("name")]["style.css"]
	s.mu.RUnlock()
	if ok {
		d.SetStylesheet(string(css))
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := d.RenderHTMLFor(dev, w); err != nil {
		jsonError(w, http.StatusInternalServerError, err)
	}
}

// handleExplore is the data explorer: every endpoint data object in
// tabular text form (Figure 29's headless mode).
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, ds := range d.EndpointNames() {
		t, ok := d.Endpoint(ds)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "== %s (%d rows) ==\n%s\n", ds, t.Len(), t.Format(50))
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	type dsInfo struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
		Rows    int      `json:"rows"`
	}
	var out []dsInfo
	for _, ds := range d.EndpointNames() {
		if t, ok := d.Endpoint(ds); ok {
			out = append(out, dsInfo{Name: ds, Columns: t.Schema().Names(), Rows: t.Len()})
		}
	}
	jsonOK(w, map[string]any{"datasets": out})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	t, ok := d.Endpoint(r.PathValue("ds"))
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no endpoint data object %q", r.PathValue("ds")))
		return
	}
	writeTable(w, r, t)
}

func writeTable(w http.ResponseWriter, r *http.Request, t *table.Table) {
	switch r.URL.Query().Get("format") {
	case "csv":
		b, err := connector.EncodeCSV(t)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Write(b)
	case "sbin":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(connector.EncodeSBIN(t))
	default:
		b, err := connector.EncodeJSON(t)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	}
}

func (s *Server) handleAdhoc(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	out, err := d.AdhocQuery(r.PathValue("ds"), r.PathValue("col"), r.PathValue("agg"), r.PathValue("vcol"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	writeTable(w, r, out)
}

// handleSelect records a widget selection. Body: {"values": [...]} or
// {"range": ["lo", "hi"]}.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	var body struct {
		Values []string `json:"values"`
		Range  []string `json:"range"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	widgetName := r.PathValue("widget")
	if len(body.Range) == 2 {
		err = d.SelectRange(widgetName, body.Range[0], body.Range[1])
	} else {
		err = d.Select(widgetName, body.Values...)
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	jsonOK(w, map[string]any{"widget": widgetName, "dependents": d.Dependents(widgetName)})
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	repo, ok := s.repos[r.PathValue("name")]
	s.mu.RUnlock()
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no dashboard %q", r.PathValue("name")))
		return
	}
	log, err := repo.Log(vcs.DefaultBranch)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	lines := make([]string, len(log))
	for i, c := range log {
		lines[i] = c.String()
	}
	jsonOK(w, map[string]any{"log": lines})
}

// handleUpload stores a per-dashboard auxiliary file (data payloads and
// task dictionaries) — the HTTP equivalent of the paper's SFTP upload
// interface (§4.3.2).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	file := r.PathValue("file")
	if strings.Contains(file, "/") || strings.Contains(file, "..") {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("bad file name %q", file))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.UploadData(name, file, body)
	jsonOK(w, map[string]any{"dashboard": name, "file": file, "bytes": len(body)})
}

// handleProfile serves the §6 meta-dashboard: per-column statistics of
// every materialized data object, as a generated platform dashboard.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	meta, err := profile.BuildMeta(d)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range meta.EndpointNames() {
		t, ok := meta.Endpoint(name)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "== %s ==\n%s\n", name, t.Format(0))
	}
}

// handleTrace serves the last run's execution trace: a human span tree
// by default, Chrome trace-event JSON with ?format=chrome (loadable in
// chrome://tracing and Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	trace, ok := s.traces[name]
	s.mu.RUnlock()
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("dashboard %q has not been run", name))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteChrome(w); err != nil {
			jsonError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	trace.Format(w)
}

// handleHistory serves the run-history flight recorder: the dashboard's
// recent runs (newest first, ?limit=N to truncate) and the per-stage
// profiles accumulated for its current flow-file revision. ?baseline=1
// adds the latest run's per-stage deltas against the EWMA baseline —
// the regression view `shareinsights time -compare` prints.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec := s.platform.History
	if rec == nil {
		jsonError(w, http.StatusNotFound, fmt.Errorf("run history is not enabled"))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	runs := rec.Runs(name, limit)
	if len(runs) == 0 {
		jsonError(w, http.StatusNotFound, fmt.Errorf("dashboard %q has no recorded runs", name))
		return
	}
	body := map[string]any{
		"dashboard": name,
		"flow_hash": runs[0].FlowHash,
		"runs":      runs,
		"profiles":  rec.Profiles(runs[0].FlowHash),
	}
	if r.URL.Query().Get("baseline") == "1" {
		body["baseline"] = runs[0].Deltas
	}
	jsonOK(w, body)
}

// handleOps serves the self-hosted ops meta-dashboard: the last run's
// telemetry assembled into a generated platform dashboard (the
// Race2Insights Figure 31/32 pattern). ?format=html renders the page;
// the default is the endpoint tables plus the generated flow file.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	meta, err := ops.BuildOps(d, s.opsPanels()...)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if r.URL.Query().Get("format") == "html" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := meta.RenderHTML(w); err != nil {
			jsonError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range meta.EndpointNames() {
		t, ok := meta.Endpoint(name)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "== %s ==\n%s\n", name, t.Format(0))
	}
}

func (s *Server) handleShared(w http.ResponseWriter, r *http.Request) {
	type objInfo struct {
		Name      string   `json:"name"`
		Dashboard string   `json:"dashboard"`
		Columns   []string `json:"columns"`
		Rows      int      `json:"rows"`
		Version   int      `json:"version"`
	}
	var out []objInfo
	for _, n := range s.platform.Catalog.Names() {
		if o, ok := s.platform.Catalog.Resolve(n); ok {
			out = append(out, objInfo{
				Name: o.Name, Dashboard: o.Dashboard,
				Columns: o.Schema.Names(), Rows: o.Data.Len(), Version: o.Version,
			})
		}
	}
	jsonOK(w, map[string]any{"shared": out})
}

// UploadData stores one of a dashboard's auxiliary files (the upload
// route, the CLI and tests). Uploads are copy-on-write: runs read the
// per-dashboard map without the lock through env.Resources, so each
// upload installs a new map and a running or cached dashboard keeps the
// snapshot its upload revision named.
func (s *Server) UploadData(dashboardName, file string, content []byte) {
	s.mu.Lock()
	next := make(map[string][]byte, len(s.data[dashboardName])+1)
	maps.Copy(next, s.data[dashboardName])
	next[file] = content
	s.data[dashboardName] = next
	s.uploadRev[dashboardName]++
	s.mu.Unlock()
	s.invalidateResults(dashboardName)
}

// SaveDashboard commits flow-file content programmatically, under the
// same parse-and-validate rule as the HTTP save routes.
func (s *Server) SaveDashboard(name, author string, content []byte) (string, error) {
	if _, err := s.checkParses(name, content); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	repo, ok := s.repos[name]
	if !ok {
		var err error
		if repo, err = s.newRepoLocked(name); err != nil {
			return "", err
		}
	}
	hash, err := repo.Commit(vcs.DefaultBranch, author, "save "+name, content)
	if err == nil {
		s.invalidateResults(name)
	}
	return hash, err
}

// Run compiles and runs a saved dashboard programmatically.
func (s *Server) Run(name string) (*dashboard.Dashboard, error) {
	return s.runDashboard(context.Background(), name)
}

// RunContext is Run honoring ctx.
func (s *Server) RunContext(ctx context.Context, name string) (*dashboard.Dashboard, error) {
	return s.runDashboard(ctx, name)
}

// Repo exposes a dashboard's repository (the CLI's vcs subcommands).
func (s *Server) Repo(name string) (*vcs.Repo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.repos[name]
	return r, ok
}
