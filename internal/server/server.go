// Package server exposes the ShareInsights development and data APIs
// over HTTP — the browser-only development interface of §4.3 and the
// data API of §4.4. Every route is one row of the table in routes.go,
// documented in docs/SERVING.md ("REST routes"): the row declares what
// its handler needs and how the admission gate and a follower treat
// it, and one loop mounts every row behind the same chain. The server
// keeps one record per dashboard name (entry).
//
// Type-checking and execution errors surface as JSON {error: ...} bodies.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/diagnose"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/replica"
	"shareinsights/internal/store/persist"
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

	mu         sync.RWMutex
	dashboards map[string]*entry
}

// entry is everything the server keeps for one dashboard name. An entry
// can precede its repository (uploads may arrive before the first save)
// and outlive it (a follower's refreshed replica may drop the name).
type entry struct {
	name string

	// Guarded by Server.mu; requests read them through a target.
	repo      *vcs.Repo
	uploads   map[string][]byte // copy-on-write, see UploadData
	uploadRev int               // bumped per upload (result-cache keys)
	live      *dashboard.Dashboard

	// The flow file parsed at main's tip, shared read-only by every
	// lint, check, explain and run of that tip.
	flowMu sync.Mutex
	tip    string
	file   *flowfile.File
	err    error
}

// target is one request's view of its dashboard: the entry's state
// snapshotted under the lock, so handlers never take it.
type target struct {
	name      string
	e         *entry
	repo      *vcs.Repo
	uploads   map[string][]byte
	uploadRev int
	live      *dashboard.Dashboard
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
		platform:   p,
		httpm:      obs.NewHTTPMetrics(p.Metrics),
		dashboards: map[string]*entry{},
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
		s.setRepos(comps.Repos())
		comps.OnRepos(s.setRepos)
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
		s.setRepos(s.store.Repos())
	}
	return s
}

// setRepos installs a whole repository set — recovery's, or a follower's
// refreshed replica. Entries keep their uploads and live dashboards.
func (s *Server) setRepos(repos map[string]*vcs.Repo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.dashboards {
		e.repo = nil
	}
	for name, repo := range repos {
		s.entryLocked(name).repo = repo
	}
}

// entryLocked returns the dashboard's record, creating it on first use.
// Callers hold s.mu for writing.
func (s *Server) entryLocked(name string) *entry {
	e := s.dashboards[name]
	if e == nil {
		e = &entry{name: name}
		s.dashboards[name] = e
	}
	return e
}

// lookup snapshots a dashboard's record; an unknown name yields a target
// with nothing but the name.
func (s *Server) lookup(name string) target {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e := s.dashboards[name]; e != nil {
		return target{name, e, e.repo, e.uploads, e.uploadRev, e.live}
	}
	return target{name: name}
}

// parse is the server's one flow-file parser; validate adds the
// cross-section checks a save must pass.
func parse(name string, content []byte, validate bool) (*flowfile.File, error) {
	f, err := flowfile.Parse(name, string(content))
	if err == nil && validate {
		err = f.Validate(true)
	}
	return f, err
}

// flow returns the flow file at main's tip and the tip's hash, parsing
// only when the tip has moved since the last call. The file is shared:
// callers must not modify it.
func (e *entry) flow(repo *vcs.Repo) (*flowfile.File, string, error) {
	tip, err := repo.Tip(vcs.DefaultBranch)
	if err != nil {
		return nil, "", err
	}
	e.flowMu.Lock()
	defer e.flowMu.Unlock()
	if e.tip != tip.Hash {
		content, err := repo.ContentAt(tip.Hash)
		if err != nil {
			return nil, "", err
		}
		e.file, e.err = parse(e.name, content, false)
		e.tip = tip.Hash
	}
	return e.file, e.tip, e.err
}

// statusError is a failed write that knows its HTTP status; anything
// else a write returns is a 500.
type statusError struct {
	status int
	error
}

func (e statusError) Unwrap() error { return e.error }

// change is one write to a dashboard's repository.
type change struct {
	branch, author, message string
	body                    []byte // the new content, or
	merge                   string // the branch to merge into branch instead
	fresh                   bool   // the dashboard must not exist yet (fork)
}

// commit is the one write path to a repository: the content — given or
// merged — must parse and validate, so a repository only ever holds
// loadable pipelines; then it is committed (journaled first on a durable
// server) and, when main moved, the dashboard's cached results are
// dropped. It returns the commit hash and the parsed file.
func (s *Server) commit(name string, c change) (string, *flowfile.File, error) {
	var f *flowfile.File
	check := func(body []byte) (err error) {
		if f, err = parse(name, body, true); err != nil {
			return statusError{http.StatusUnprocessableEntity, err}
		}
		return nil
	}
	if c.merge == "" {
		if err := check(c.body); err != nil {
			return "", nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(name)
	if e.repo != nil && c.fresh {
		return "", nil, statusError{http.StatusConflict, fmt.Errorf("dashboard %q already exists", name)}
	}
	repo := e.repo
	if repo == nil {
		repo = vcs.NewRepo(name)
	}
	var hash string
	var err error
	if c.merge == "" {
		hash, err = repo.Commit(c.branch, c.author, c.message, c.body)
	} else if hash, err = repo.MergeIf(c.branch, c.merge, c.author, check); err != nil && !errors.As(err, &statusError{}) {
		err = statusError{http.StatusConflict, err}
	}
	if err == nil && e.repo == nil && s.store != nil {
		// A new repository's first commit predates its journal: adoption
		// records the full state and journals everything after, so the
		// dashboard appears durably or not at all.
		err = s.store.AdoptRepo(repo)
	}
	if err != nil {
		return "", nil, err
	}
	e.repo = repo
	if c.branch == vcs.DefaultBranch {
		if f != nil {
			e.flowMu.Lock()
			e.tip, e.file, e.err = hash, f, nil
			e.flowMu.Unlock()
		}
		s.invalidateResults(name)
	}
	return hash, f, nil
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

// writeError answers a failed commit.
func writeError(w http.ResponseWriter, err error) {
	var se statusError
	if errors.As(err, &se) {
		jsonError(w, se.status, se.error)
		return
	}
	jsonError(w, http.StatusInternalServerError, err)
}

// run compiles and runs the dashboard's latest committed flow file
// through the shared result cache: identical concurrent requests collapse
// onto one leader execution and repeated requests serve the completed
// dashboard. The outcome ("hit", "miss", "follow", or "" when caching is
// off for this flow) feeds the X-SI-Result-Cache response header. A hit
// neither parses nor compiles: the flow file is the one parsed for the
// tip, and the key comes from it.
func (s *Server) run(ctx context.Context, name string) (*dashboard.Dashboard, string, error) {
	t := s.lookup(name)
	if t.repo == nil {
		return nil, "", fmt.Errorf("no dashboard %q", name)
	}
	f, tip, err := t.e.flow(t.repo)
	if err != nil {
		return nil, "", err
	}
	if s.resultCache == nil || !cacheableFlow(f) {
		d, err := s.execute(ctx, t, f)
		return d, "", err
	}
	// The leader executes detached from the requester's context: its
	// result is shared by every collapsed follower, so one client's
	// disconnect must not kill work others are waiting on. The
	// platform's RunTimeout still bounds the run.
	leaderCtx := context.WithoutCancel(ctx)
	v, outcome, err := s.resultCache.Do(ctx, s.resultCacheKey(name, tip, f, t.uploadRev), func() (any, error) {
		return s.execute(leaderCtx, t, f)
	})
	if err != nil {
		return nil, outcome, err
	}
	if outcome == admission.OutcomeHit {
		s.recordOutcome(name, "cached", "")
	}
	return v.(*dashboard.Dashboard), outcome, nil
}

// execute compiles and runs one parsed flow file — the uncached path
// run leads into.
func (s *Server) execute(ctx context.Context, t target, f *flowfile.File) (*dashboard.Dashboard, error) {
	d, err := s.platform.Compile(f, t.uploads)
	if err != nil {
		return nil, diagnosed(f, err)
	}
	// Every server-side run records a span tree, served by GET
	// /dashboards/{name}/trace until the next run replaces it.
	d.SetTracer(obs.NewTrace(t.name))
	rerr := d.RunContext(ctx)
	// The dashboard is published even when the run failed: /health,
	// /stats and /trace must be able to explain what went wrong (stage
	// failures, panic stacks, degraded sources).
	s.mu.Lock()
	t.e.live = d
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

// UploadData stores one of a dashboard's auxiliary files (the upload
// route, the CLI and tests). Uploads are copy-on-write: runs read the
// per-dashboard map without the lock through env.Resources, so each
// upload installs a new map and a running or cached dashboard keeps the
// snapshot its upload revision named.
func (s *Server) UploadData(dashboardName, file string, content []byte) {
	s.mu.Lock()
	e := s.entryLocked(dashboardName)
	next := make(map[string][]byte, len(e.uploads)+1)
	maps.Copy(next, e.uploads)
	next[file] = content
	e.uploads = next
	e.uploadRev++
	s.mu.Unlock()
	s.invalidateResults(dashboardName)
}

// SaveDashboard commits flow-file content programmatically, under the
// same parse-and-validate rule as the HTTP save routes.
func (s *Server) SaveDashboard(name, author string, content []byte) (string, error) {
	hash, _, err := s.commit(name, change{branch: vcs.DefaultBranch, author: author, message: "save " + name, body: content})
	return hash, err
}

// Run compiles and runs a saved dashboard programmatically.
func (s *Server) Run(name string) (*dashboard.Dashboard, error) {
	return s.RunContext(context.Background(), name)
}

// RunContext is Run honoring ctx.
func (s *Server) RunContext(ctx context.Context, name string) (*dashboard.Dashboard, error) {
	d, _, err := s.run(ctx, name)
	return d, err
}

// Repo exposes a dashboard's repository (the CLI's vcs subcommands).
func (s *Server) Repo(name string) (*vcs.Repo, bool) {
	repo := s.lookup(name).repo
	return repo, repo != nil
}
