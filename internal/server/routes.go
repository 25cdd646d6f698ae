package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"path"
	"strconv"
	"strings"

	"shareinsights/internal/admission"
	"shareinsights/internal/replica"
)

// need is what a route's handler is handed, resolved before it runs.
type need int

const (
	needNone need = iota // nothing: the handler copes with any name
	needRepo             // the dashboard's repository, else 404
	needLive             // the dashboard's last run, else 404
)

// handler serves one route; t is the {name} dashboard as the route's
// need resolved it.
type handler func(w http.ResponseWriter, r *http.Request, t target)

// attr is a set of route attributes.
type attr uint8

const (
	// admit sends the request through the admission gate: the routes
	// that execute flows or pipelines. Cheap metadata reads and mutations
	// stay ungated so saves and uploads land even under shedding.
	admit attr = 1 << iota
	// write marks a mutation of replicated state: a follower answers 307
	// with the leader's URL. POST run/select are not writes — they execute
	// the replicated flow ephemerally and never touch journaled state.
	write
	// gated marks a read of replicated data, which a follower past its
	// -max-lag bound refuses. Health, metrics and the ops page are not:
	// they describe this process, and are exactly what an operator needs
	// when replication is the thing that broke.
	gated
)

// route is one row of the REST surface. Everything the serving chain
// decides about a request it decides from the row — never from the
// request path — and docs/SERVING.md lists the same rows.
type route struct {
	pattern string
	needs   need
	attrs   attr
	h       handler
}

// routes is the whole REST surface, in docs/SERVING.md order.
func (s *Server) routes() []route {
	plain := func(h http.HandlerFunc) handler {
		return func(w http.ResponseWriter, r *http.Request, _ target) { h(w, r) }
	}
	rs := []route{
		{"GET /dashboards", needNone, gated, s.handleList},
		{"PUT /dashboards/{name}", needNone, write, s.handlePut},
		{"GET /dashboards/{name}", needRepo, gated, s.handleGet},
		{"GET /dashboards/{name}/edit", needNone, gated, s.handleEditor},
		{"GET /dashboards/{name}/log", needRepo, gated, s.handleLog},
		{"PUT /dashboards/{name}/data/{file}", needNone, write, s.handleUpload},
		{"GET /dashboards/{name}/lint", needRepo, gated, s.handleAnalysis(false)},
		{"GET /dashboards/{name}/check", needRepo, gated, s.handleAnalysis(true)},
		{"GET /dashboards/{name}/explain", needRepo, gated, s.handleExplain},
		{"POST /dashboards/{name}/run", needNone, admit | gated, s.handleRun},
		{"GET /dashboards/{name}/html", needLive, admit | gated, s.handleHTML},
		{"GET /dashboards/{name}/explore", needLive, admit | gated, s.handleExplore},
		{"GET /dashboards/{name}/ds", needLive, gated, s.handleDatasets},
		{"GET /dashboards/{name}/ds/{ds}", needLive, gated, s.handleDataset},
		{"GET /dashboards/{name}/ds/{ds}/groupby/{col}/{agg}/{vcol}", needLive, admit | gated, s.handleAdhoc},
		{"POST /dashboards/{name}/select/{widget}", needLive, admit | gated, s.handleSelect},
		{"GET /dashboards/{name}/profile", needLive, gated, s.handleProfile},
		{"GET /dashboards/{name}/suggest", needLive, gated, s.handleSuggest},
		{"GET /dashboards/{name}/health", needLive, gated, s.handleHealth},
		{"GET /dashboards/{name}/stats", needLive, gated, s.handleStats},
		{"GET /dashboards/{name}/trace", needLive, gated, s.handleTrace},
		{"GET /dashboards/{name}/history", needNone, gated, s.handleHistory},
		{"GET /dashboards/{name}/ops", needLive, 0, s.handleOps},
		{"GET /dashboards/{name}/branches", needRepo, gated, s.handleBranches},
		{"POST /dashboards/{name}/branches/{branch}", needRepo, write, s.handleBranchCreate},
		{"GET /dashboards/{name}/branches/{branch}", needRepo, gated, s.handleBranchGet},
		{"PUT /dashboards/{name}/branches/{branch}", needRepo, write, s.handleBranchPut},
		{"POST /dashboards/{name}/merge/{branch}", needRepo, write, s.handleMerge},
		{"GET /dashboards/{name}/diff/{branch}", needRepo, gated, s.handleDiff},
		{"POST /dashboards/{name}/fork/{newname}", needRepo, write, s.handleFork},
		{"GET /shared", needNone, gated, s.handleShared},
		{"GET /shared/search", needNone, gated, s.handleSharedSearch},
		{"GET /health", needNone, 0, s.handleServerHealth},
		{"GET /metrics", needNone, 0, plain(s.platform.Metrics.Handler().ServeHTTP)},
	}
	if s.store != nil {
		// Only servers with a durable store ship WALs.
		l := replica.NewLeader(s.store)
		rs = append(rs,
			route{"GET /replica/status", needNone, 0, plain(l.ServeStatus)},
			route{"GET /replica/wal/{component}", needNone, 0, plain(l.ServeWAL)},
			route{"GET /replica/bootstrap/{component}", needNone, 0, plain(l.ServeBootstrap)})
	}
	return rs
}

// Handler returns the HTTP handler: every row of the route table behind
// the same chain — metrics under the row's pattern, the follower
// contract, admission, then the row's need resolved for its handler —
// and, for a request no row takes, the JSON error shape (unrouted). A
// path that is not clean as the mux reads it, escaped — an empty, "." or
// ".." segment, a trailing slash — names no route: it answers a JSON 404
// where the mux would redirect to the cleaned path with an HTML body.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	rs := s.routes()
	for i := 0; i <= len(rs); i++ {
		pattern, h := "/", func(w http.ResponseWriter, r *http.Request) { unrouted(mux, w, r) }
		if i < len(rs) {
			pattern, h = rs[i].pattern, s.httpm.Instrument(rs[i].pattern, s.serve(rs[i]))
		}
		mux.HandleFunc(pattern, h)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.EscapedPath(); path.Clean(p) != p {
			jsonError(w, http.StatusNotFound, fmt.Errorf("no route for %s", r.URL.Path))
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// unrouted answers a request no route takes — an unknown path, a
// segment that holds a slash — with the JSON error shape: a 405 listing
// in Allow the methods that route its path, as the mux's own 405 does,
// else a 404.
func unrouted(routes *http.ServeMux, w http.ResponseWriter, r *http.Request) {
	var allow []string
	for _, m := range []string{http.MethodDelete, http.MethodGet, http.MethodHead, http.MethodOptions,
		http.MethodPatch, http.MethodPost, http.MethodPut} {
		probe := *r
		probe.Method = m
		if _, pattern := routes.Handler(&probe); pattern != "/" {
			allow = append(allow, m)
		}
	}
	if allow == nil {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no route for %s", r.URL.Path))
		return
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	jsonError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s does not take %s", r.URL.Path, r.Method))
}

func (s *Server) serve(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.follower != nil && !s.replicaServes(w, r, rt) {
			return
		}
		if rt.attrs&admit != 0 && s.gate != nil {
			release, ok := s.acquire(w, r)
			if !ok {
				return
			}
			defer release()
		}
		t := s.lookup(r.PathValue("name"))
		switch {
		case rt.needs == needRepo && t.repo == nil:
			jsonError(w, http.StatusNotFound, fmt.Errorf("no dashboard %q", t.name))
		case rt.needs == needLive && t.live == nil:
			jsonError(w, http.StatusNotFound, fmt.Errorf("dashboard %q has not been run", t.name))
		default:
			rt.h(w, r, t)
		}
	}
}

// replicaServes enforces the replica serving contract on a follower:
// leader redirect for writes, lag header on everything else, bounded
// staleness on data reads. It reports whether the request goes on.
func (s *Server) replicaServes(w http.ResponseWriter, r *http.Request, rt route) bool {
	if rt.attrs&write != 0 {
		leader := strings.TrimSuffix(s.follower.LeaderURL(), "/") + r.URL.RequestURI()
		w.Header().Set("Location", leader)
		jsonError(w, http.StatusTemporaryRedirect,
			fmt.Errorf("read-only replica: write to the leader at %s", leader))
		return false
	}
	lag := s.follower.Lag()
	w.Header().Set(ReplicaLagHeader, strconv.FormatFloat(lag.Seconds(), 'f', 3, 64))
	if rt.attrs&gated != 0 && s.followerMaxLag > 0 && lag > s.followerMaxLag {
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable,
			fmt.Errorf("replica lag %.1fs exceeds max-lag %s; retry or read the leader", lag.Seconds(), s.followerMaxLag))
		return false
	}
	return true
}

// acquire takes a slot at the admission gate. Shed requests answer 429
// with a Retry-After hint — the same contract PR 3's connector client
// honors on upstream 429s — and are recorded in the flight recorder so
// `shareinsights history` shows pressure, not just runs.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.gate.Acquire(r.Context(), tenantOf(r))
	if err == nil {
		return release, true
	}
	var shed *admission.ShedError
	if errors.As(err, &shed) {
		secs := max(int(math.Ceil(shed.RetryAfter.Seconds())), 1)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.recordOutcome(r.PathValue("name"), "shed", err.Error())
		jsonError(w, http.StatusTooManyRequests, err)
		return nil, false
	}
	// The context died while queued: the client is gone, the status is
	// never delivered. 408 keeps it out of 5xx space.
	jsonError(w, http.StatusRequestTimeout, err)
	return nil, false
}
