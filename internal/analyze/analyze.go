// Package analyze is flowlint: a schema-aware static analyzer for flow
// files. It runs over a parsed file plus the task registry — never the
// data — and reports everything it can prove wrong (or suspicious)
// before a single row moves: misspelled columns in filter expressions,
// type-mismatched comparisons, dead data objects, unknown widget
// properties, joins whose keys cannot match.
//
// The paper's §5.2 hackathon learnings single out error reporting as the
// platform's weakest point ("error reporting … leaked the abstraction");
// diagnose maps failures after they happen, analyze moves the same
// vocabulary to before execution. Findings reuse the diagnose
// conventions: an entity reference (D./T./W.), the declaring line, the
// problem in flow-file terms, and a did-you-mean hint.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/diagnose"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/share"
	"shareinsights/internal/task"
	"shareinsights/internal/widget"
)

// Severity grades a finding.
type Severity int

// Severity levels, least severe first so Report.Max is a plain max.
const (
	Info Severity = iota
	Warning
	Error
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Finding is one lint result.
type Finding struct {
	// Rule is the stable rule ID (FL000–FL051, see docs/LINTING.md).
	Rule string `json:"rule"`
	// Severity grades the finding; only errors fail the lint.
	Severity Severity `json:"severity"`
	// Entity is the flow-file reference ("T.players_count"), "" if global.
	Entity string `json:"entity,omitempty"`
	// Line is the 1-based flow-file line (0 unknown).
	Line int `json:"line,omitempty"`
	// Message describes the problem in flow-file vocabulary.
	Message string `json:"message"`
	// Hint is an optional suggestion ("did you mean …?").
	Hint string `json:"hint,omitempty"`
}

// String renders the finding as the CLI prints it:
//
//	FL003 error: T.by_region (line 12): column "regon" not found — did you mean "region"?
func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: ", f.Rule, f.Severity)
	if f.Entity != "" {
		b.WriteString(f.Entity)
		if f.Line > 0 {
			fmt.Fprintf(&b, " (line %d)", f.Line)
		}
		b.WriteString(": ")
	} else if f.Line > 0 {
		fmt.Fprintf(&b, "(line %d): ", f.Line)
	}
	b.WriteString(f.Message)
	if f.Hint != "" {
		b.WriteString(" — ")
		b.WriteString(f.Hint)
	}
	return b.String()
}

// Report is the ordered finding list for one flow file.
type Report struct {
	Findings []Finding `json:"findings"`
}

// HasErrors reports whether any finding is error-severity — the lint
// exit-code condition.
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// HasAtLeast reports whether any finding is at or above sev — the
// `lint -fail-on` gating condition (HasAtLeast(Error) == HasErrors).
func (r *Report) HasAtLeast(sev Severity) bool {
	for _, f := range r.Findings {
		if f.Severity >= sev {
			return true
		}
	}
	return false
}

// ParseSeverity maps a severity name ("error", "warning", "info") to its
// level; ok is false for anything else.
func ParseSeverity(s string) (Severity, bool) {
	switch s {
	case "error":
		return Error, true
	case "warning":
		return Warning, true
	case "info":
		return Info, true
	}
	return Info, false
}

// Counts returns the number of errors, warnings and infos.
func (r *Report) Counts() (errors, warnings, infos int) {
	for _, f := range r.Findings {
		switch f.Severity {
		case Error:
			errors++
		case Warning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// Options configures a lint run. Tasks is required; the rest degrade
// gracefully: without Connectors protocol/format values are not checked,
// without Shared unresolved inputs are assumed published.
type Options struct {
	// Tasks resolves task types, including user extensions.
	Tasks *task.Registry
	// Connectors validates protocol/format property values.
	Connectors *connector.Registry
	// Shared resolves published data-object schemas (may be nil).
	Shared dag.SharedResolver
	// Published lists the platform's existing published objects with
	// their owning dashboards, for the FL044 publish-collision check
	// (may be nil).
	Published func() []PublishedObject
	// SourceScopes seeds column facts for source data objects whose true
	// types the caller knows (the differential fuzzer provides its
	// generator's types; production lint leaves sources unknown, exactly
	// as before).
	SourceScopes map[string]flowcheck.Scope
}

// PublishedObject identifies one existing published object for FL044.
type PublishedObject struct {
	// Name is the name in the shared catalog.
	Name string
	// Dashboard is the publishing dashboard.
	Dashboard string
}

// PlatformOptions are the Options for analyzing against a platform's
// registries and its shared catalog (nil: none) — what the server's lint
// routes and the CLI both pass.
func PlatformOptions(tasks *task.Registry, conns *connector.Registry, catalog *share.Catalog) Options {
	opts := Options{Tasks: tasks, Connectors: conns}
	if catalog != nil {
		opts.Shared = catalog.ResolveSchema
		opts.Published = func() []PublishedObject {
			var out []PublishedObject
			for _, obj := range catalog.Objects() {
				out = append(out, PublishedObject{Name: obj.Name, Dashboard: obj.Dashboard})
			}
			return out
		}
	}
	return opts
}

// Lint analyzes the file and returns every finding, ordered by line.
func Lint(f *flowfile.File, opts Options) *Report {
	r, _ := LintWithFacts(f, opts)
	return r
}

// LintWithFacts analyzes the file and additionally returns the flowcheck
// fact export — per-object column types, constants, intervals,
// cardinality bounds and liveness — for `shareinsights check`, the check
// endpoint and the optimizer.
func LintWithFacts(f *flowfile.File, opts Options) (*Report, *flowcheck.Facts) {
	l := lintRun(f, opts)
	return l.report, l.exportFacts()
}

// lintRun resolves the file into its graph once (dag.Resolve — the same
// resolver a run uses, so lint cannot call clean what run rejects),
// analyzes it, and runs every rule over the result.
func lintRun(f *flowfile.File, opts Options) *linter {
	g, problems := dag.Resolve(f, opts.Tasks, opts.Shared)
	l := &linter{analysis: analyzeGraph(g, opts.SourceScopes), opts: opts, report: &Report{}}
	l.validation()
	l.checkTasks()
	l.checkProblems(problems)
	for _, fl := range f.Flows {
		if rec := l.flowRecs[fl]; rec != nil {
			l.checkChain(rec)
		}
	}
	l.checkWidgets()
	l.checkDataProps()
	l.checkResilienceProps()
	l.checkColumnarProp()
	l.checkCacheProps()
	l.checkPublish()
	l.checkDeadEntities()
	l.checkDeadColumns()
	sort.SliceStable(l.report.Findings, func(i, j int) bool {
		a, b := l.report.Findings[i], l.report.Findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Entity < b.Entity
	})
	return l
}

// analysis is the facts half of a lint — what the flowcheck transfer and
// the liveness pass derive from a resolved graph, with no rule run. It is
// all the optimizer's hints need.
type analysis struct {
	g *dag.Graph
	f *flowfile.File
	// scopes and cards map resolved data-object names to flowcheck column
	// facts and row-count bounds.
	scopes map[string]flowcheck.Scope
	cards  map[string]flowcheck.Card
	// flowRecs keeps each flow's walked chain for the rules, liveness and
	// facts.
	flowRecs map[*flowfile.Flow]*chainRec
	// lookup resolves parallel sub-task definitions for flowcheck.
	lookup flowcheck.TaskLookup
	// full / live / consumed are the liveness pass results (see liveness).
	full     map[string]bool
	live     map[string]map[string]bool
	consumed map[string]bool
}

// analyzeGraph runs the forward transfer over every flow chain the
// resolver bound, in the graph's order, then the backward liveness pass.
// Source column types are unknown — values are parsed dynamically — so
// inference starts at the first deriving task, unless the caller knows
// them (sources: the differential fuzzer seeds its generator's types).
func analyzeGraph(g *dag.Graph, sources map[string]flowcheck.Scope) *analysis {
	a := &analysis{g: g, f: g.File, scopes: map[string]flowcheck.Scope{}, cards: map[string]flowcheck.Card{},
		flowRecs: map[*flowfile.Flow]*chainRec{}, lookup: func(name string) *flowfile.TaskDef { return g.File.Tasks[name] }}
	for _, name := range g.Order {
		n := g.Nodes[name]
		if n.IsSource() {
			if n.Schema != nil {
				a.scopes[name], a.cards[name] = flowcheck.Scope{}, flowcheck.CardUnknown()
				if sc, ok := sources[name]; ok {
					a.scopes[name] = sc
				}
			}
			continue
		}
		rec := a.flowRecs[n.Flow]
		if rec == nil {
			rec = a.walk(&n.Chain)
			a.flowRecs[n.Flow] = rec
		}
		if rec.ok {
			a.scopes[name], a.cards[name] = rec.scope, rec.card
		}
	}
	a.liveness()
	return a
}

// exportFacts assembles the stable fact structure from the walk's
// per-object results and the liveness pass.
func (a *analysis) exportFacts() *flowcheck.Facts {
	facts := flowcheck.NewFacts()
	for name, sc := range a.scopes {
		prod, verdict := "source", ""
		if rec := a.flowRecs[a.g.Nodes[name].Flow]; rec != nil {
			prod = "flow"
			if n := len(rec.stages); n > 0 {
				prod, verdict = "T."+rec.stages[n-1].Name, rec.stages[n-1].verdict
			}
		}
		facts.Record(name, prod, sc, a.cards[name], verdict)
		if a.full[name] {
			all := map[string]bool{}
			for _, n := range a.g.Nodes[name].Schema.Names() {
				all[n] = true
			}
			facts.SetLive(name, all)
		} else if a.consumed[name] {
			facts.SetLive(name, a.live[name])
			for _, col := range a.deadColumns(name) {
				facts.AddDead(name, col, prod != "source")
			}
		}
	}
	return facts
}

// deadColumns lists the columns of a consumed, not fully live object
// that nothing downstream reads, in schema order.
func (a *analysis) deadColumns(name string) []string {
	var dead []string
	if s := a.g.Nodes[name].Schema; s != nil && a.consumed[name] && !a.full[name] {
		for _, col := range s.Names() {
			if !a.live[name][col] {
				dead = append(dead, col)
			}
		}
	}
	return dead
}

// linter holds one run's state: the analysis plus the rules' report.
type linter struct {
	*analysis
	opts   Options
	report *Report
}

func (l *linter) add(f Finding) { l.report.Findings = append(l.report.Findings, f) }

// validation folds structural Validate problems in as FL000 errors, so
// one lint pass shows everything — dangling references included.
func (l *linter) validation() {
	err := l.f.Validate(true)
	if err == nil {
		return
	}
	for _, d := range diagnose.Diagnose(l.f, err) {
		if reclaimedCodes[d.Code] {
			// A structural problem some specific rule re-reports with a
			// rule ID and did-you-mean hints (FL042 resilience, FL043
			// columnar); skipping it here keeps each problem reported
			// exactly once. The code travels with the Problem from
			// flowfile.Validate, so the suppression cannot drift out of
			// sync with message wording.
			continue
		}
		l.add(Finding{Rule: "FL000", Severity: Error, Entity: d.Entity, Line: d.Line, Message: d.Problem, Hint: d.Hint})
	}
}

// reclaimedCodes are the flowfile.Problem codes a dedicated rule
// re-reports, keyed by the code each Validate problem carries.
var reclaimedCodes = map[string]bool{
	flowfile.ProblemResilience: true, // FL042: on_error / timeout / retries
	flowfile.ProblemColumnar:   true, // FL043: columnar
	flowfile.ProblemCache:      true, // FL045: cache / max_rows
}

// checkTasks reports every task definition the resolver could not parse,
// referenced or not: FL001 unknown type, FL002 invalid configuration.
func (l *linter) checkTasks() {
	for _, name := range l.f.TaskOrder {
		if p := l.g.BadTasks[name]; p != nil {
			l.reportProblem(p)
		}
	}
}

// checkProblems reports what the resolver rejects about the graph as a
// whole. A task's problem is reported where it is declared (checkTasks),
// a chain's where it is walked (checkChain); an undefined task or a
// second producer is Validate's FL000 already.
func (l *linter) checkProblems(problems []*dag.Problem) {
	for _, p := range problems {
		switch p.Kind {
		case dag.ProblemUnresolvable, dag.ProblemCycle, dag.ProblemSchemaDrift:
			l.reportProblem(p)
		}
	}
}

// reportProblem turns a resolver problem into its finding; the rule is
// chosen by the problem's kind, never by its text. Kinds no existing rule
// owns are FL000 errors carrying the resolver's own message.
func (l *linter) reportProblem(p *dag.Problem) {
	fd := Finding{Rule: "FL000", Severity: Error, Entity: p.Entity, Line: p.Line, Message: cleanMsg(p.Err.Error())}
	nearest := func(target string, candidates []string) {
		if hint := diagnose.Nearest(target, candidates); hint != "" {
			fd.Hint = fmt.Sprintf("did you mean %q?", hint)
		}
	}
	switch p.Kind {
	case dag.ProblemUnknownType:
		def := l.f.Tasks[p.Entity[2:]]
		fd.Rule, fd.Message = "FL001", fmt.Sprintf("unknown task type %q", def.Type)
		nearest(def.Type, append(l.opts.Tasks.Types(), "parallel"))
	case dag.ProblemBadConfig:
		fd.Rule = "FL002"
		if def := l.f.Tasks[p.Entity[2:]]; (def.Type == "topn" || def.Type == "sort") && len(def.Config.StrList("orderby_column")) == 0 {
			fd.Hint = "topn needs an orderby_column to rank rows within each group"
		}
	case dag.ProblemMissingColumn, dag.ProblemBind:
		fd.Rule = "FL003"
		nearest(p.Column, p.InScope)
	case dag.ProblemDuplicateColumn:
		fd.Rule = "FL020"
	case dag.ProblemUnresolvable:
		// Validate(true) lets an object with no local schema pass as a
		// shared publication; only a declared source makes it an error.
		fd.Rule = "FL003"
		d := l.f.Data[p.Entity[2:]]
		if d == nil {
			return // named by a widget source only: nothing declares it
		} else if d.Prop("source") != "" || d.Prop("protocol") != "" {
			fd.Message = "data object has a source but no declared schema, so its columns cannot be resolved"
			fd.Hint = "add a schema: block listing the source's columns"
		} else {
			fd.Severity = Warning
			fd.Message = "data object is not resolvable locally; assuming a shared publication — its pipelines cannot be checked"
		}
	}
	l.add(fd)
}

// checkDataProps validates connector properties on data objects: FL040
// bad protocol/format value, FL041 unknown property key, FL042 bad
// resilience detail (on_error/timeout/retries, docs/RESILIENCE.md).
func (l *linter) checkDataProps() {
	knownProps := []string{
		"source", "protocol", "format", "separator", "request_type",
		"on_error", "timeout", "retries", "columnar", "cache", "max_rows",
	}
	for _, name := range l.f.DataOrder {
		d := l.f.Data[name]
		for _, key := range d.PropOrder {
			if hasString(knownProps, key) || strings.HasPrefix(key, "http_headers.") {
				continue
			}
			fd := Finding{Rule: "FL041", Severity: Warning, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("unknown data property %q", key)}
			if hint := diagnose.Nearest(key, knownProps); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
		if l.opts.Connectors == nil {
			continue
		}
		if p := d.Prop("protocol"); p != "" && !hasString(l.opts.Connectors.Protocols(), p) {
			fd := Finding{Rule: "FL040", Severity: Error, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("unknown connector protocol %q", p)}
			if hint := diagnose.Nearest(p, l.opts.Connectors.Protocols()); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
		if fm := d.Prop("format"); fm != "" && !hasString(l.opts.Connectors.Formats(), strings.ToLower(fm)) {
			fd := Finding{Rule: "FL040", Severity: Error, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("unknown data format %q", fm)}
			if hint := diagnose.Nearest(fm, l.opts.Connectors.Formats()); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
	}
}

// checkResilienceProps validates the run-time degradation details: FL042
// bad on_error/timeout/retries value. These are also hard validation
// errors (flowfile.Validate), but the linter repeats them with rule IDs
// and hints so the editor and flowlint report them uniformly.
func (l *linter) checkResilienceProps() {
	modes := []string{"fail", "stale", "empty"}
	for _, name := range l.f.DataOrder {
		d := l.f.Data[name]
		if m := d.Prop("on_error"); m != "" && !hasString(modes, m) {
			fd := Finding{Rule: "FL042", Severity: Error, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("on_error must be fail, stale or empty (got %q)", m)}
			if hint := diagnose.Nearest(m, modes); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
		if v := d.Prop("timeout"); v != "" {
			if dur, err := time.ParseDuration(v); err != nil || dur <= 0 {
				l.add(Finding{Rule: "FL042", Severity: Error, Entity: "D." + name, Line: d.Line,
					Message: fmt.Sprintf("timeout %q is not a positive duration", v),
					Hint:    `use Go duration syntax, e.g. "30s" or "2m"`})
			}
		}
		if v := d.Prop("retries"); v != "" {
			if n, err := strconv.Atoi(v); err != nil || n < 0 {
				l.add(Finding{Rule: "FL042", Severity: Error, Entity: "D." + name, Line: d.Line,
					Message: fmt.Sprintf("retries must be a non-negative integer (got %q)", v)})
			}
		}
	}
}

// checkColumnarProp validates the batch engine's vectorized-execution
// planner detail: FL043 bad `columnar:` value (docs/ENGINE.md). Like
// FL042 this doubles a hard validation error with a rule ID and hint.
func (l *linter) checkColumnarProp() {
	modes := []string{"auto", "on", "off"}
	for _, name := range l.f.DataOrder {
		d := l.f.Data[name]
		if v := d.Prop("columnar"); v != "" && !hasString(modes, v) {
			fd := Finding{Rule: "FL043", Severity: Error, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("columnar must be auto, on or off (got %q)", v)}
			if hint := diagnose.Nearest(v, modes); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
	}
}

// checkCacheProps validates the serving layer's admission details:
// FL045 bad `cache:` or `max_rows:` value (docs/SERVING.md). Like
// FL042/FL043 this doubles a hard validation error with a rule ID and
// hint — a typo here silently disables the protection the detail asks
// for.
func (l *linter) checkCacheProps() {
	modes := []string{"on", "off"}
	for _, name := range l.f.DataOrder {
		d := l.f.Data[name]
		if v := d.Prop("cache"); v != "" && !hasString(modes, v) {
			fd := Finding{Rule: "FL045", Severity: Error, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("cache must be on or off (got %q)", v)}
			if hint := diagnose.Nearest(v, modes); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
		if v := d.Prop("max_rows"); v != "" {
			if n, err := strconv.Atoi(v); err != nil || n <= 0 {
				l.add(Finding{Rule: "FL045", Severity: Error, Entity: "D." + name, Line: d.Line,
					Message: fmt.Sprintf("max_rows must be a positive integer (got %q)", v)})
			}
		}
	}
}

// checkPublish reports FL044 publish-name collisions. Two sinks in one
// file publishing the same name, or a name another dashboard already
// publishes, are last-writer-wins shadowing: each run silently
// overwrites the other's object in the shared catalog. A near-miss
// against an existing published name gets an info-level did-you-mean —
// the typo that forks "sales_total" into "sales_totl" is otherwise
// invisible until a consumer fails to resolve it.
func (l *linter) checkPublish() {
	owners := map[string]string{}
	var published []string
	if l.opts.Published != nil {
		for _, po := range l.opts.Published() {
			owners[po.Name] = po.Dashboard
			published = append(published, po.Name)
		}
	}
	seen := map[string]string{}
	for _, name := range l.f.DataOrder {
		d := l.f.Data[name]
		if d.Publish == "" {
			continue
		}
		if first, dup := seen[d.Publish]; dup {
			l.add(Finding{Rule: "FL044", Severity: Warning, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("publish name %q is also published by D.%s in this file; the later sink overwrites the earlier object", d.Publish, first)})
			continue
		}
		seen[d.Publish] = name
		if owner, exists := owners[d.Publish]; exists && owner != l.f.Name {
			l.add(Finding{Rule: "FL044", Severity: Warning, Entity: "D." + name, Line: d.Line,
				Message: fmt.Sprintf("publish name %q is already published by dashboard %q; last writer wins — each run overwrites the other's object", d.Publish, owner),
				Hint:    "pick a distinct name, or read the existing object instead of republishing it"})
		} else if !exists {
			if near := diagnose.Nearest(d.Publish, published); near != "" && near != d.Publish {
				l.add(Finding{Rule: "FL044", Severity: Info, Entity: "D." + name, Line: d.Line,
					Message: fmt.Sprintf("publish name %q is close to existing published object %q (dashboard %q)", d.Publish, near, owners[near]),
					Hint:    fmt.Sprintf("did you mean %q?", near)})
			}
		}
	}
}

// visualAttrs are widget configuration keys consumed by renderers and
// the interaction layer, beyond the per-type data attributes.
var visualAttrs = []string{
	"type", "source", "static", "description",
	"default_selection", "default_selection_value", "range",
	"country", "fill_color", "latlong_value", "markers", "markersize",
	"show_tooltip", "slider_type", "tag", "body", "rows", "tabs", "name",
}

// checkWidgets validates widget definitions: FL030 unknown type, FL031
// unknown property, FL032 missing required attribute or source, FL033
// data attribute bound to a column missing from the source output.
func (l *linter) checkWidgets() {
	for _, name := range l.f.WidgetOrder {
		w := l.f.Widgets[name]
		entity := "W." + name
		desc, ok := widget.Lookup(w.Type)
		if !ok {
			fd := Finding{Rule: "FL030", Severity: Error, Entity: entity, Line: w.Line,
				Message: fmt.Sprintf("unknown widget type %q", w.Type)}
			if hint := diagnose.Nearest(w.Type, widget.Types()); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
			continue
		}
		allowed := append([]string{}, visualAttrs...)
		for _, a := range desc.DataAttrs {
			allowed = append(allowed, a.Name)
			if a.Required && w.Attr(a.Name) == "" {
				l.add(Finding{Rule: "FL032", Severity: Error, Entity: entity, Line: w.Line,
					Message: fmt.Sprintf("widget type %s requires data attribute %q", w.Type, a.Name)})
			}
		}
		if desc.NeedsSource && w.Source == nil && len(w.Static) == 0 {
			l.add(Finding{Rule: "FL032", Severity: Error, Entity: entity, Line: w.Line,
				Message: fmt.Sprintf("widget type %s needs a source pipeline or static rows", w.Type)})
		}
		if w.Config != nil && w.Config.Kind == flowfile.MapNode {
			for _, e := range w.Config.Entries {
				if hasString(allowed, e.Key) {
					continue
				}
				fd := Finding{Rule: "FL031", Severity: Warning, Entity: entity,
					Line:    entryLine(e, w.Line),
					Message: fmt.Sprintf("unknown widget property %q for type %s", e.Key, w.Type)}
				if hint := diagnose.Nearest(e.Key, allowed); hint != "" {
					fd.Hint = fmt.Sprintf("did you mean %q?", hint)
				}
				l.add(fd)
			}
		}
		// Bind data attributes against the source pipeline's output.
		if w.Source == nil {
			continue
		}
		l.checkChain(l.walk(l.g.Widgets[name]))
		out := l.g.Widgets[name].Schema
		if out == nil {
			continue
		}
		for _, a := range desc.DataAttrs {
			col := w.Attr(a.Name)
			if col == "" || out.Index(col) >= 0 {
				continue
			}
			fd := Finding{Rule: "FL033", Severity: Error, Entity: entity, Line: w.Line,
				Message: fmt.Sprintf("data attribute %s binds to column %q, not produced by the source pipeline (have %s)",
					a.Name, col, strings.Join(out.Names(), ", "))}
			if hint := diagnose.Nearest(col, out.Names()); hint != "" {
				fd.Hint = fmt.Sprintf("did you mean %q?", hint)
			}
			l.add(fd)
		}
	}
}

// checkDeadEntities reports FL010 dead data objects (from the resolved
// graph's consumers), FL011 unused tasks, FL012 unused widgets.
func (l *linter) checkDeadEntities() {
	g := l.g
	for _, name := range g.DeadSinks() {
		l.add(Finding{Rule: "FL010", Severity: Warning, Entity: "D." + name, Line: defLine(l.f, name),
			Message: "computed but never read: not an endpoint, not published, feeds no flow or widget",
			Hint:    "mark it +D." + name + " to expose it, or remove the flow"})
	}
	for _, name := range g.DeadSources() {
		l.add(Finding{Rule: "FL010", Severity: Warning, Entity: "D." + name, Line: defLine(l.f, name),
			Message: "declared but never read by any flow or widget"})
	}

	// FL011: tasks referenced by no flow or widget pipeline (following
	// parallel sub-task references transitively).
	usedTasks := map[string]bool{}
	var markTask func(name string)
	markTask = func(name string) {
		if usedTasks[name] {
			return
		}
		usedTasks[name] = true
		if def, ok := l.f.Tasks[name]; ok {
			for _, sub := range def.Config.StrList("parallel") {
				if ref, err := flowfile.ParseRef(sub); err == nil && ref.Section == "T" {
					markTask(ref.Name)
				}
			}
		}
	}
	for _, fl := range l.f.Flows {
		if fl.Pipeline == nil {
			continue
		}
		for _, t := range fl.Pipeline.Tasks {
			markTask(t.Name)
		}
	}
	for _, wname := range l.f.WidgetOrder {
		if w := l.f.Widgets[wname]; w.Source != nil {
			for _, t := range w.Source.Tasks {
				markTask(t.Name)
			}
		}
	}
	for _, name := range l.f.TaskOrder {
		if !usedTasks[name] {
			l.add(Finding{Rule: "FL011", Severity: Warning, Entity: "T." + name, Line: l.f.Tasks[name].Line,
				Message: "task is referenced by no flow or widget pipeline"})
		}
	}

	// FL012: widgets reachable from no layout cell (only meaningful when
	// the file has a layout; data-processing files render nothing).
	if l.f.Layout == nil {
		return
	}
	usedWidgets := map[string]bool{}
	var markWidget func(name string)
	markWidget = func(name string) {
		if usedWidgets[name] {
			return
		}
		usedWidgets[name] = true
		w, ok := l.f.Widgets[name]
		if !ok {
			return
		}
		// Layout and TabLayout widgets nest other widgets inside their
		// configuration; any scalar matching a widget name is a reference.
		markWidgetRefs(w.Config, l.f, markWidget)
	}
	for _, row := range l.f.Layout.Rows {
		for _, cell := range row.Cells {
			markWidget(cell.Widget)
		}
	}
	// Widgets driving interaction filters are in use even off-layout.
	for _, name := range l.f.TaskOrder {
		if !usedTasks[name] {
			continue
		}
		if src := l.f.Tasks[name].Config.Str("filter_source"); src != "" {
			if ref, err := flowfile.ParseRef(src); err == nil && ref.Section == "W" {
				markWidget(ref.Name)
			}
		}
	}
	for _, name := range l.f.WidgetOrder {
		if !usedWidgets[name] {
			l.add(Finding{Rule: "FL012", Severity: Warning, Entity: "W." + name, Line: l.f.Widgets[name].Line,
				Message: "widget appears in no layout cell and drives no interaction filter"})
		}
	}
}

// markWidgetRefs walks a widget's config node marking every scalar that
// names an existing widget — how Layout rows and TabLayout tabs refer to
// their children.
func markWidgetRefs(n *flowfile.Node, f *flowfile.File, mark func(string)) {
	if n == nil {
		return
	}
	if n.Scalar != "" {
		if _, ok := f.Widgets[n.Scalar]; ok {
			mark(n.Scalar)
		}
	}
	for _, e := range n.Entries {
		if _, ok := f.Widgets[e.Key]; ok {
			mark(e.Key)
		}
		markWidgetRefs(e.Value, f, mark)
	}
	for _, it := range n.Items {
		markWidgetRefs(it, f, mark)
	}
}

// defLine returns a data object's declaring line (0 if undeclared).
func defLine(f *flowfile.File, name string) int {
	if d, ok := f.Data[name]; ok {
		return d.Line
	}
	return 0
}

// entryLine returns a map entry's value line, falling back when absent.
func entryLine(e flowfile.MapEntry, fallback int) int {
	if e.Value != nil && e.Value.Line > 0 {
		return e.Value.Line
	}
	return fallback
}

// cleanMsg strips engine prefixes, mirroring diagnose.
func cleanMsg(msg string) string {
	for _, prefix := range []string{"batch: ", "dag: ", "connector: ", "expr: ", "schema: ", "cube: ", "task: "} {
		msg = strings.ReplaceAll(msg, prefix, "")
	}
	return msg
}

func hasString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
