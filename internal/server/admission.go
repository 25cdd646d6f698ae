package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"shareinsights/internal/admission"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/obs/ops"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// TenantHeader names the request header carrying the tenant identity
// for per-tenant rate limits and in-flight quotas. Requests without it
// share the default tenant. See docs/SERVING.md.
const TenantHeader = "X-SI-Tenant"

// ResultCacheHeader names the response header reporting how the shared
// result cache handled a run request: hit, miss or follow.
const ResultCacheHeader = "X-SI-Result-Cache"

// WithAdmission installs the front-door admission gate: a server-wide
// concurrency limit with bounded FIFO queue, queue-depth shedding
// (429 + Retry-After) and per-tenant limits keyed on the X-SI-Tenant
// header. cfg.Metrics defaults to the platform's registry so the
// si_admission_* series land on GET /metrics.
func WithAdmission(cfg admission.Config) Option {
	return func(s *Server) {
		if cfg.Metrics == nil {
			cfg.Metrics = s.platform.Metrics
		}
		s.gate = admission.NewGate(cfg)
	}
}

// WithResultCache enables the shared run-result cache holding at most
// limit entries (<= 0 means the default bound): identical concurrent
// run requests collapse to one execution, and repeated requests serve
// the completed result until a save, upload or publish rotates the key.
func WithResultCache(limit int) Option {
	return func(s *Server) {
		s.resultCache = admission.NewResultCache(limit, s.platform.Metrics)
	}
}

// Gate exposes the admission gate (nil when admission is off) — the
// ops meta-dashboard and tests read its snapshot.
func (s *Server) Gate() *admission.Gate { return s.gate }

// tenantOf resolves the request's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return admission.DefaultTenant
}

// recordOutcome adds a shed or cached entry to the flight recorder —
// best-effort, like run recording itself.
func (s *Server) recordOutcome(name, status, detail string) {
	rec := s.platform.History
	if rec == nil || name == "" {
		return
	}
	rec.Record(&history.RunRecord{Dashboard: name, Status: status, Error: detail})
}

// cacheableFlow reports whether a flow's results may be served from
// the shared result cache: any `cache: off` data object opts the whole
// dashboard out (its sources are declared side-effecting or
// time-sensitive).
func cacheableFlow(f *flowfile.File) bool {
	for _, d := range f.Data {
		if d.Prop("cache") == "off" {
			return false
		}
	}
	return true
}

// resultCacheKey encodes everything a run result depends on: the flow
// revision (commit tip), the upload revision, and the versions of
// every shared catalog object the flow reads. A save, upload or
// publish rotates the key, so stale entries become unreachable without
// any coordination; explicit Invalidate calls drop them eagerly too.
func (s *Server) resultCacheKey(name, tip string, f *flowfile.File, uploadRev int) string {
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteString("@")
	sb.WriteString(tip)
	fmt.Fprintf(&sb, "|u%d", uploadRev)
	names := make([]string, 0, len(f.Data))
	for n := range f.Data {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if obj, ok := s.platform.Catalog.Resolve(n); ok {
			fmt.Fprintf(&sb, "|%s:v%d", n, obj.Version)
		}
	}
	return sb.String()
}

// invalidateResults drops the dashboard's completed result-cache
// entries after a mutation (save, upload). Publishes need no call: the
// catalog version inside the key rotates instead.
func (s *Server) invalidateResults(name string) {
	if s.resultCache != nil {
		s.resultCache.Invalidate(name + "@")
	}
}

// opsPanels builds the admission and result-cache panels for the ops
// meta-dashboard — metric/value tables, one Grid widget each. Empty
// when the corresponding subsystem is off.
func (s *Server) opsPanels() []ops.Panel {
	var panels []ops.Panel
	kv := func(rows [][2]any) *table.Table {
		t := table.New(opsPanelSchema)
		for _, r := range rows {
			t.AppendValues(value.NewString(r[0].(string)), value.NewInt(r[1].(int64)))
		}
		return t
	}
	if s.gate != nil {
		st := s.gate.Stats()
		rows := [][2]any{
			{"in_flight", int64(st.InFlight)},
			{"queued", int64(st.Queued)},
			{"max_inflight", int64(st.MaxInFlight)},
			{"queue_depth", int64(st.QueueDepth)},
			{"tenants", int64(st.Tenants)},
			{"admitted", st.Admitted},
		}
		reasons := make([]string, 0, len(st.Shed))
		for r := range st.Shed {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			rows = append(rows, [2]any{"shed_" + r, st.Shed[r]})
		}
		panels = append(panels, ops.Panel{Name: "admission", Table: kv(rows)})
	}
	if s.resultCache != nil {
		st := s.resultCache.Stats()
		panels = append(panels, ops.Panel{Name: "result_cache", Table: kv([][2]any{
			{"entries", int64(st.Entries)},
			{"hits", st.Hits},
			{"misses", st.Misses},
			{"collapsed", st.Collapsed},
			{"evictions", st.Evictions},
			{"invalidations", st.Invalidations},
		})})
	}
	if s.follower != nil {
		panels = append(panels, s.replicationPanel())
	}
	return panels
}

// opsPanelSchema is the metric/value shape shared by the admission and
// result-cache ops panels.
var opsPanelSchema = schema.MustFromNames("metric", "value")
