package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs/ops"
	"shareinsights/internal/profile"
	"shareinsights/internal/table"
	"shareinsights/internal/vcs"
)

// author attributes a write to the request's X-User.
func author(r *http.Request) string {
	if u := r.Header.Get("X-User"); u != "" {
		return u
	}
	return "anonymous"
}

// names lists the dashboards that have a repository, sorted.
func (s *Server) names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.dashboards))
	for n, e := range s.dashboards {
		if e.repo != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, _ target) {
	jsonOK(w, map[string]any{"dashboards": s.names()})
}

// The largest bodies the routes take: a flow file, a data file, a selection.
const maxFlowBytes, maxDataBytes, maxSelectBytes = 16 << 20, 64 << 20, 1 << 20

// bodyAhead is how far readBody allocates ahead of the bytes received on
// the strength of a declared Content-Length alone.
const bodyAhead = 1 << 20

// readBody reads a request body of at most limit bytes. A declared
// Content-Length sizes the buffer exactly — at once up to bodyAhead, past
// that doubling toward the length only as the bytes before arrive, so a
// client that declares much and sends little holds little. A chunked body
// grows as it arrives. A longer body is answered 413, one that ends before
// its declared length (or fails to read) 400; ok is false once answered.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	var err error
	switch n := r.ContentLength; {
	case n > limit:
		err = &http.MaxBytesError{Limit: limit}
	case n >= 0:
		body = make([]byte, 0, min(n, bodyAhead))
		for err == nil && int64(len(body)) < n {
			if len(body) == cap(body) {
				body = append(make([]byte, 0, min(n, 2*int64(len(body)))), body...)
			}
			var m int
			m, err = io.ReadFull(r.Body, body[len(body):cap(body)])
			body = body[:len(body)+m]
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	default:
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err == nil {
		return body, true
	}
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	jsonError(w, status, err)
	return nil, false
}

// handlePut creates or updates a dashboard's flow file.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, t target) {
	body, ok := readBody(w, r, maxFlowBytes)
	if !ok {
		return
	}
	hash, f, err := s.commit(t.name, change{branch: vcs.DefaultBranch, author: author(r), message: "save " + t.name, body: body})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := map[string]any{"dashboard": t.name, "commit": hash}
	// The save already passed validation, so lint findings here are
	// advisory: the commit stands either way, the editor just shows them.
	// The lint compiles main's new tip, for the next run to reuse.
	sl, a, err := s.compiled(s.lookup(t.name))
	if err != nil || sl.tip != hash { // a later save already moved main
		sl.prog, a = s.platform.Prepare(f)
	}
	if report, _ := s.lint(sl.prog, a); len(report.Findings) > 0 {
		resp["lint"] = report.Findings
	}
	jsonOK(w, resp)
}

// lint runs the static analyzer's rules over a program (on the analysis
// its compile made, when given), returning the findings and the
// analysis, whose Facts only GET …/check exports.
func (s *Server) lint(prog *dashboard.Program, a *analyze.Analysis) (*analyze.Report, *analyze.Analysis) {
	if a == nil {
		a = analyze.Analyze(prog.Graph, nil)
	}
	p := s.platform
	return a.Lint(prog.Problems, analyze.PlatformOptions(p.Tasks, p.Connectors, p.Catalog)), a
}

// handleAnalysis analyzes the latest committed flow file on demand — the
// editor's "check my dashboard" button, no execution involved. GET …/lint
// answers the findings and their counts; GET …/check (facts) answers the
// findings plus the typed summary the analysis inferred: per-object
// column types, constants, value intervals, cardinality bounds, filter
// verdicts and liveness — the stable flowcheck.Facts contract
// (docs/TYPES.md).
func (s *Server) handleAnalysis(facts bool) handler {
	return func(w http.ResponseWriter, r *http.Request, t target) {
		sl, a, err := s.compiled(t)
		if err != nil {
			jsonError(w, http.StatusUnprocessableEntity, err)
			return
		}
		report, a := s.lint(sl.prog, a)
		body := map[string]any{"dashboard": t.name, "findings": report.Findings}
		if facts {
			body["facts"] = a.Facts()
		} else {
			body["errors"], body["warnings"], body["infos"] = report.Counts()
		}
		jsonOK(w, body)
	}
}

// writeContent serves a branch's flow-file text; missing answers the
// status for a branch that does not exist.
func writeContent(w http.ResponseWriter, repo *vcs.Repo, branch string, missing int) {
	content, err := repo.Content(branch)
	if err != nil {
		jsonError(w, missing, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(content)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, t target) {
	writeContent(w, t.repo, vcs.DefaultBranch, http.StatusInternalServerError)
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
	body["slowest_stages"] = dashboard.StageRecords(st.Slowest(5))
	if len(st.Failures) > 0 {
		fs := make([]failureJSON, 0, len(st.Failures))
		for _, f := range st.Failures {
			fs = append(fs, failureJSON{Output: f.Output, Err: f.Err, Panic: f.Panic, Stack: f.Stack})
		}
		body["failures"] = fs
	}
	if full {
		body["timings"] = dashboard.StageRecords(st.Timings)
	}
	return body
}

// handleRun compiles the latest committed flow file and executes it.
// The request's context rides along: a client disconnect or deadline
// cancels the run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, t target) {
	d, outcome, err := s.run(r.Context(), t.name)
	if outcome != "" {
		w.Header().Set(ResultCacheHeader, outcome)
	}
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	jsonOK(w, statsBody(t.name, d, r.URL.Query().Get("full") == "1"))
}

// handleServerHealth is the process-level health surface. With a
// durable store attached it reports each component's recovery outcome
// (records replayed, torn tail dropped, snapshot age) and any WAL
// damage; "degraded" means a component is fail-stop on appends until
// the next snapshot repairs it.
func (s *Server) handleServerHealth(w http.ResponseWriter, r *http.Request, _ target) {
	body := map[string]any{"status": "ok", "dashboards": len(s.names())}
	switch {
	case s.follower != nil:
		body["durability"] = "replica"
		body["replication"] = s.follower.Status()
		if s.follower.Degraded() || (s.followerMaxLag > 0 && s.follower.Lag() > s.followerMaxLag) {
			body["status"] = "degraded"
		}
	case s.store == nil:
		body["durability"] = "in-memory"
	default:
		body["durability"] = "durable"
		statuses := s.store.Status()
		for _, cs := range statuses {
			if cs.Damaged != "" {
				body["status"] = "degraded"
			}
		}
		body["store"] = statuses
	}
	jsonOK(w, body)
}

// handleHealth reports the last run attempt's health: overall status
// (ok / degraded / error / never-run), per-source outcomes and retry
// totals. Unlike /stats it also covers runs that failed outright.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request, t target) {
	h := t.live.Health()
	jsonOK(w, map[string]any{
		"dashboard": t.name,
		"status":    h.Status,
		"error":     h.Error,
		"retries":   h.Retries,
		"sources":   h.Sources,
	})
}

// handleStats reports the last run's execution statistics without
// re-running: the §6 bottleneck view. ?full=1 includes every stage
// timing, not just the top five.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, t target) {
	jsonOK(w, statsBody(t.name, t.live, r.URL.Query().Get("full") == "1"))
}

// handleExplain reports the cost-based plan the next run would execute:
// source pushdowns, filter order and row/columnar path choices,
// with the evidence (history, facts or heuristic) behind each decision
// (docs/OPTIMIZER.md). It plans the program compiled at main's tip — the
// one the next run executes — with the run history of its flow hash, so
// it follows a save at once, and a run is never needed first.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, t target) {
	sl, _, err := s.compiled(t)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := sl.prog.Err(); err != nil {
		jsonError(w, http.StatusUnprocessableEntity, diagnosed(sl.file, err))
		return
	}
	plan := sl.prog.Explain()
	if plan == nil {
		jsonError(w, http.StatusConflict, fmt.Errorf("optimizer disabled on this platform"))
		return
	}
	jsonOK(w, map[string]any{"dashboard": t.name, "plan": plan, "text": plan.Format()})
}

// handleHTML renders the last run's page; an uploaded style.css applies
// to every render after the upload, whenever the run happened.
func (s *Server) handleHTML(w http.ResponseWriter, r *http.Request, t target) {
	dev := dashboard.Desktop
	if r.URL.Query().Get("device") == "mobile" {
		dev = dashboard.Mobile
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.live.RenderHTMLStyled(dev, string(t.uploads["style.css"]), w); err != nil {
		jsonError(w, http.StatusInternalServerError, err)
	}
}

// writeEndpoints serves a dashboard's endpoint tables as text.
func writeEndpoints(w http.ResponseWriter, d *dashboard.Dashboard, counts bool, limit int) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	d.WriteEndpoints(w, "", counts, limit)
}

// handleExplore is the data explorer: every endpoint data object in
// tabular text form (Figure 29's headless mode).
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request, t target) {
	writeEndpoints(w, t.live, true, 50)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request, t target) {
	type dsInfo struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
		Rows    int      `json:"rows"`
	}
	var out []dsInfo
	for _, ds := range t.live.EndpointNames() {
		if tb, ok := t.live.Endpoint(ds); ok {
			out = append(out, dsInfo{Name: ds, Columns: tb.Schema().Names(), Rows: tb.Len()})
		}
	}
	jsonOK(w, map[string]any{"datasets": out})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request, t target) {
	tb, ok := t.live.Endpoint(r.PathValue("ds"))
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no endpoint data object %q", r.PathValue("ds")))
		return
	}
	writeTable(w, r, tb)
}

func writeTable(w http.ResponseWriter, r *http.Request, t *table.Table) {
	ctype, encode := "application/json", connector.EncodeJSON
	switch r.URL.Query().Get("format") {
	case "csv":
		ctype, encode = "text/csv", connector.EncodeCSV
	case "sbin":
		ctype, encode = "application/octet-stream", func(t *table.Table) ([]byte, error) { return connector.EncodeSBIN(t), nil }
	}
	b, err := encode(t)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(b)
}

func (s *Server) handleAdhoc(w http.ResponseWriter, r *http.Request, t target) {
	out, err := t.live.AdhocQuery(r.PathValue("ds"), r.PathValue("col"), r.PathValue("agg"), r.PathValue("vcol"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	writeTable(w, r, out)
}

var errSelectBody = errors.New("select body is not a JSON object")

// handleSelect records a widget selection. Body: exactly one JSON
// object, {"values": [...]} or {"range": ["lo", "hi"]}.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request, t target) {
	raw, ok := readBody(w, r, maxSelectBytes)
	if !ok {
		return
	}
	var body struct {
		Values []string `json:"values"`
		Range  []string `json:"range"`
	}
	err := json.Unmarshal(raw, &body)
	if err != nil || bytes.TrimSpace(raw)[0] != '{' {
		jsonError(w, http.StatusBadRequest, cmp.Or(err, errSelectBody))
		return
	}
	widgetName := r.PathValue("widget")
	if len(body.Range) == 2 {
		err = t.live.SelectRange(widgetName, body.Range[0], body.Range[1])
	} else {
		err = t.live.Select(widgetName, body.Values...)
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	jsonOK(w, map[string]any{"widget": widgetName, "dependents": t.live.Dependents(widgetName)})
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request, t target) {
	log, err := t.repo.Log(vcs.DefaultBranch)
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
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, t target) {
	file := r.PathValue("file")
	if strings.Contains(file, "/") || strings.Contains(file, "..") {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("bad file name %q", file))
		return
	}
	body, ok := readBody(w, r, maxDataBytes)
	if !ok {
		return
	}
	s.UploadData(t.name, file, body)
	jsonOK(w, map[string]any{"dashboard": t.name, "file": file, "bytes": len(body)})
}

// handleProfile serves the §6 meta-dashboard: per-column statistics of
// every materialized data object, as a generated platform dashboard.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request, t target) {
	meta, err := profile.BuildMeta(t.live)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeEndpoints(w, meta, false, 0)
}

// handleTrace serves the last run's execution trace and its latest
// interaction: a human span tree by default, Chrome trace-event JSON
// with ?format=chrome (loadable in chrome://tracing and Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, t target) {
	trace := t.live.Trace() // execute attached it
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
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, t target) {
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
	runs := rec.Runs(t.name, limit)
	if len(runs) == 0 {
		jsonError(w, http.StatusNotFound, fmt.Errorf("dashboard %q has no recorded runs", t.name))
		return
	}
	body := map[string]any{
		"dashboard": t.name,
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
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request, t target) {
	meta, err := ops.BuildOps(t.live, s.opsPanels()...)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if r.URL.Query().Get("format") != "html" {
		writeEndpoints(w, meta, false, 0)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := meta.RenderHTML(w); err != nil {
		jsonError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleShared(w http.ResponseWriter, r *http.Request, _ target) {
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

// The collaboration handlers expose the §4.5.1 branch-and-merge model.

func (s *Server) handleBranches(w http.ResponseWriter, r *http.Request, t target) {
	jsonOK(w, map[string]any{"branches": t.repo.Branches()})
}

func (s *Server) handleBranchCreate(w http.ResponseWriter, r *http.Request, t target) {
	branch := r.PathValue("branch")
	if err := t.repo.Branch(vcs.DefaultBranch, branch); err != nil {
		jsonError(w, http.StatusConflict, err)
		return
	}
	jsonOK(w, map[string]string{"branch": branch})
}

func (s *Server) handleBranchGet(w http.ResponseWriter, r *http.Request, t target) {
	writeContent(w, t.repo, r.PathValue("branch"), http.StatusNotFound)
}

func (s *Server) handleBranchPut(w http.ResponseWriter, r *http.Request, t target) {
	body, ok := readBody(w, r, maxFlowBytes)
	if !ok {
		return
	}
	branch := r.PathValue("branch")
	hash, _, err := s.commit(t.name, change{branch: branch, author: author(r), message: "save " + branch, body: body})
	if err != nil {
		writeError(w, err)
		return
	}
	jsonOK(w, map[string]string{"branch": branch, "commit": hash})
}

// handleMerge merges a branch into main. The merged file goes through
// the same commit path as a save, so a merge that leaves the flow file
// unloadable is refused with main untouched.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request, t target) {
	branch := r.PathValue("branch")
	hash, _, err := s.commit(t.name, change{branch: vcs.DefaultBranch, author: author(r), merge: branch})
	var ce *vcs.ConflictError
	if errors.As(err, &ce) {
		conflicts, _ := json.Marshal(ce.Entries) // strings always marshal
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		fmt.Fprintf(w, `{"error":"merge conflicts","conflicts":%s}`, conflicts)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	jsonOK(w, map[string]string{"merged": branch, "commit": hash})
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request, t target) {
	mainContent, err := t.repo.Content(vcs.DefaultBranch)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	branchContent, err := t.repo.Content(r.PathValue("branch"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	diff, err := vcs.Diff(mainContent, branchContent)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	jsonOK(w, map[string]any{"diff": diff})
}

// handleFork copies a dashboard's main branch into a new dashboard —
// the "fork to go" observation 3 workflow.
func (s *Server) handleFork(w http.ResponseWriter, r *http.Request, t target) {
	content, err := t.repo.Content(vcs.DefaultBranch)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	newName := r.PathValue("newname")
	_, _, err = s.commit(newName, change{branch: vcs.DefaultBranch, author: author(r),
		message: "fork of " + t.name + "/" + vcs.DefaultBranch, body: content, fresh: true})
	if err != nil {
		writeError(w, err)
		return
	}
	// The fork starts with the parent's uploaded data files so it runs
	// out of the box; upload maps are never mutated in place (see
	// UploadData), so the two can share one until either uploads.
	if t.uploads != nil {
		s.mu.Lock()
		s.entryLocked(newName).uploads = t.uploads
		s.mu.Unlock()
	}
	jsonOK(w, map[string]string{"fork": newName})
}

// Discovery handlers (§6: "discovery of data-sets to enrich an existing
// data pipeline").

func (s *Server) handleSharedSearch(w http.ResponseWriter, r *http.Request, _ target) {
	type hit struct {
		Name      string   `json:"name"`
		Dashboard string   `json:"dashboard"`
		Columns   []string `json:"columns"`
	}
	var out []hit
	for _, obj := range s.platform.Catalog.Search(r.URL.Query().Get("q")) {
		out = append(out, hit{Name: obj.Name, Dashboard: obj.Dashboard, Columns: obj.Schema.Names()})
	}
	jsonOK(w, map[string]any{"results": out})
}

// handleSuggest proposes published objects that share columns with the
// dashboard's data objects — candidate joins to enrich its pipeline.
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request, t target) {
	type suggestion struct {
		For           string   `json:"for"`
		Object        string   `json:"object"`
		Dashboard     string   `json:"dashboard"`
		SharedColumns []string `json:"shared_columns"`
	}
	var out []suggestion
	d := t.live
	for _, name := range d.Graph.Order {
		n := d.Graph.Nodes[name]
		if n.Schema == nil {
			continue
		}
		for _, sug := range s.platform.Catalog.Suggest(n.Schema) {
			// Objects this dashboard already reads or publishes are not
			// news to its author.
			if sug.Object.Dashboard == d.Name {
				continue
			}
			out = append(out, suggestion{
				For:           "D." + name,
				Object:        sug.Object.Name,
				Dashboard:     sug.Object.Dashboard,
				SharedColumns: sug.SharedColumns,
			})
		}
	}
	jsonOK(w, map[string]any{"suggestions": out})
}
