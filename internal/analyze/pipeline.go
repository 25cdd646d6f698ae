package analyze

import (
	"fmt"
	"regexp"
	"strings"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/dag"
	"shareinsights/internal/diagnose"
	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

// stageRec is one walked stage, kept for the backward liveness pass and
// the facts export.
type stageRec struct {
	name string
	spec task.Spec
	def  *flowfile.TaskDef
	// ins snapshots the stage's inputs (names, schemas, scopes) before it
	// ran; out is its bound output schema.
	ins []flowcheck.Input
	out *schema.Schema
	// verdict is the filter constant-predicate verdict, "" otherwise.
	verdict string
}

// chainRec is one walked pipeline: its input object names and stages.
type chainRec struct {
	inputs []string
	stages []stageRec
	ok     bool
}

// resolveAndWalk resolves every data object's schema and walks every
// flow pipeline stage by stage. Unlike dag.Build — which aborts on the
// first error — the walk is a tolerant fixpoint: each flow binds as soon
// as its inputs resolve, failures are attributed to the specific task
// and line, and downstream flows of a failed one are skipped silently
// (their root cause is already reported).
func (l *linter) resolveAndWalk() {
	produced := map[string]bool{}
	for _, fl := range l.f.Flows {
		for _, out := range fl.Outputs {
			produced[out.Name] = true
		}
	}
	// Seed source schemas: declared inline, or resolved from the shared
	// catalog. Source column types are unknown — values are parsed
	// dynamically — so inference starts at the first deriving task. A
	// caller that does know source types (the differential fuzzer seeds
	// its generator's true column types) provides them via SourceScopes.
	for _, name := range l.f.DataOrder {
		if produced[name] {
			continue
		}
		d := l.f.Data[name]
		if d.Schema != nil {
			l.schemas[name] = d.Schema
			l.scopes[name] = l.sourceScope(name)
			l.cards[name] = flowcheck.CardUnknown()
			continue
		}
		if l.opts.Shared != nil {
			if s, ok := l.opts.Shared(name); ok {
				l.schemas[name] = s
				l.scopes[name] = l.sourceScope(name)
				l.cards[name] = flowcheck.CardUnknown()
				continue
			}
		}
		if d.Prop("source") != "" || d.Prop("protocol") != "" {
			l.add(Finding{Rule: "FL003", Severity: Error, Entity: "D." + name, Line: d.Line,
				Message: "data object has a source but no declared schema, so its columns cannot be resolved",
				Hint:    "add a schema: block listing the source's columns"})
		} else {
			l.add(Finding{Rule: "FL003", Severity: Warning, Entity: "D." + name, Line: d.Line,
				Message: "data object is not resolvable locally; assuming a shared publication — its pipelines cannot be checked"})
		}
	}
	// Fixpoint: bind flows whose inputs have all resolved.
	pending := map[int]bool{}
	for i, fl := range l.f.Flows {
		if fl.Pipeline != nil && len(fl.Outputs) > 0 {
			pending[i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i, fl := range l.f.Flows {
			if !pending[i] || !l.inputsReady(fl.Pipeline) {
				continue
			}
			pending[i] = false
			changed = true
			out, sc, card, rec := l.walkPipeline(fl.Pipeline, "D."+fl.Outputs[0].Name, fl.Line)
			l.flowRecs[i] = rec
			if !rec.ok {
				continue
			}
			for _, o := range fl.Outputs {
				l.schemas[o.Name] = out
				l.scopes[o.Name] = sc
				l.cards[o.Name] = card
			}
		}
	}
}

// sourceScope returns the caller-provided facts for a source object
// (empty — all unknown — unless Options.SourceScopes supplies them).
func (l *linter) sourceScope(name string) flowcheck.Scope {
	if l.opts.SourceScopes != nil {
		if sc, ok := l.opts.SourceScopes[name]; ok {
			return sc
		}
	}
	return flowcheck.Scope{}
}

// inputsReady reports whether every pipeline input has a resolved schema.
func (l *linter) inputsReady(p *flowfile.Pipeline) bool {
	for _, in := range p.Inputs {
		if l.schemas[in.Name] == nil {
			return false
		}
	}
	return true
}

// walkPipeline steps a pipeline's spec chain, mirroring dag.BindPipeline
// but collecting findings instead of failing fast. It returns the final
// schema, column facts and cardinality bound; rec.ok is false when the
// walk aborted (a missing input, unparsed task, or bind error — all
// reported elsewhere or here).
func (l *linter) walkPipeline(p *flowfile.Pipeline, owner string, ownerLine int) (*schema.Schema, flowcheck.Scope, flowcheck.Card, *chainRec) {
	rec := &chainRec{}
	ins := make([]flowcheck.Input, 0, len(p.Inputs))
	for _, in := range p.Inputs {
		s := l.schemas[in.Name]
		if s == nil {
			return nil, nil, flowcheck.Card{}, rec
		}
		sc := l.scopes[in.Name]
		if sc == nil {
			sc = flowcheck.Scope{}
		}
		card, ok := l.cards[in.Name]
		if !ok {
			card = flowcheck.CardUnknown()
		}
		ins = append(ins, flowcheck.Input{Name: in.Name, Schema: s, Scope: sc, Card: card})
		rec.inputs = append(rec.inputs, in.Name)
	}
	specs := make([]task.Spec, 0, len(p.Tasks))
	defs := make([]*flowfile.TaskDef, 0, len(p.Tasks))
	for _, t := range p.Tasks {
		def, ok := l.f.Tasks[t.Name]
		if !ok || l.broken[t.Name] {
			// Undefined (FL000) or unparsable (FL001/FL002): already
			// reported; the chain past this point has no schema.
			return nil, nil, flowcheck.Card{}, rec
		}
		specs = append(specs, l.specs[t.Name])
		defs = append(defs, def)
	}
	taskIns := make([]task.Input, 0, len(ins))
	for _, in := range ins {
		taskIns = append(taskIns, task.Input{Name: in.Name, Schema: in.Schema})
	}
	for k, sp := range specs {
		l.checkStage(specs, k, defs[k], p.Tasks[k].Name, ins)
		out, err := sp.Out(taskIns)
		if err != nil {
			l.reportBindError(p.Tasks[k].Name, defs[k], err, taskIns)
			return nil, nil, flowcheck.Card{}, rec
		}
		res := flowcheck.TransferStage(sp, defs[k], l.taskLookup(), ins, out)
		l.checkFilterVerdict(sp, defs[k], p.Tasks[k].Name, res.Verdict)
		rec.stages = append(rec.stages, stageRec{
			name: p.Tasks[k].Name, spec: sp, def: defs[k],
			ins: ins, out: out, verdict: res.Verdict,
		})
		ins = []flowcheck.Input{{Name: ins[0].Name, Schema: out, Scope: res.Scope, Card: res.Card}}
		taskIns = []task.Input{{Name: ins[0].Name, Schema: out}}
	}
	// Advisories over the whole chain: filters the optimizer cannot hoist.
	for _, bf := range dag.HoistFilters(specs).Blocked {
		name := p.Tasks[bf.Index].Name
		blocker := p.Tasks[bf.Blocker].Name
		msg := fmt.Sprintf("filter cannot be pushed ahead of T.%s", blocker)
		if len(bf.Columns) > 0 {
			msg += fmt.Sprintf(" (it reads %s, which T.%s produces)", quoteJoin(bf.Columns), blocker)
		}
		l.add(Finding{Rule: "FL050", Severity: Info, Entity: "T." + name, Line: defs[bf.Index].Line,
			Message: msg + "; every row flows through that stage before it can be discarded"})
	}
	if len(ins) != 1 {
		// A multi-input pipeline whose chain never merged them (e.g. no
		// tasks at all): no single output schema to propagate.
		return nil, nil, flowcheck.Card{}, rec
	}
	rec.ok = true
	return ins[0].Schema, ins[0].Scope, ins[0].Card, rec
}

// checkFilterVerdict reports FL063 for a filter whose expression has a
// proven constant truth value. The flowcheck folder suppresses verdicts
// on expressions already condemned by FL061/FL062, so the two never
// stack on one root cause.
func (l *linter) checkFilterVerdict(sp task.Spec, def *flowfile.TaskDef, name, verdict string) {
	if verdict == "" {
		return
	}
	if _, ok := sp.(*task.FilterSpec); !ok {
		return
	}
	line := configLine(def, "filter_expression")
	if verdict == "always_false" {
		l.add(Finding{Rule: "FL063", Severity: Warning, Entity: "T." + name, Line: line,
			Message: "filter expression is provably false on every row: the stage and everything downstream are empty",
			Hint:    "the predicate contradicts an upstream filter or constant; remove the stage or fix the bounds"})
		return
	}
	l.add(Finding{Rule: "FL063", Severity: Warning, Entity: "T." + name, Line: line,
		Message: "filter expression is provably true on every row: the stage passes everything through",
		Hint:    "remove the stage, or tighten the predicate"})
}

// checkStage runs the per-stage rules that need the input facts: FL004/
// FL060/FL061/FL062 expression findings, FL021 join key mismatches,
// FL051 ordering advisories.
func (l *linter) checkStage(specs []task.Spec, k int, def *flowfile.TaskDef, name string, ins []flowcheck.Input) {
	entity := "T." + name
	in := flowcheck.Scope{}
	if len(ins) > 0 {
		in = ins[0].Scope
	}
	switch t := specs[k].(type) {
	case *task.FilterSpec:
		if t.Expression != "" {
			l.checkExprIssues(t.Expression, in, entity, configLine(def, "filter_expression"))
		}
	case *task.MapSpec:
		if t.Operator == "expr" {
			line := configLine(def, "expression")
			l.checkExprColumns(def.Config.Str("expression"), ins, entity, line)
			l.checkExprIssues(def.Config.Str("expression"), in, entity, line)
		}
	case *task.ParallelSpec:
		for i, sub := range t.Subs {
			ms, ok := sub.(*task.MapSpec)
			if !ok || ms.Operator != "expr" || i >= len(t.Names) {
				continue
			}
			if sdef, ok := l.f.Tasks[t.Names[i]]; ok {
				line := configLine(sdef, "expression")
				l.checkExprColumns(sdef.Config.Str("expression"), ins, "T."+t.Names[i], line)
				l.checkExprIssues(sdef.Config.Str("expression"), in, "T."+t.Names[i], line)
			}
		}
	case *task.JoinSpec:
		l.checkJoinKeys(t, entity, def, ins)
	case *task.TopNSpec:
		for _, key := range t.OrderBy {
			if hasString(t.GroupBy, key.Column) {
				l.add(Finding{Rule: "FL051", Severity: Info, Entity: entity, Line: def.Line,
					Message: fmt.Sprintf("orderby column %q is also a grouping key — it is constant within each group and cannot rank rows", key.Column)})
			}
		}
	case *task.SortSpec:
		if k+1 < len(specs) {
			if lim, ok := specs[k+1].(*task.LimitSpec); ok {
				l.add(Finding{Rule: "FL051", Severity: Info, Entity: entity, Line: def.Line,
					Message: fmt.Sprintf("sort feeding a limit keeps only %d rows; a topn task computes the same result without sorting the full input", lim.N)})
			}
		}
	}
}

// checkExprColumns reports FL003 for expression columns absent from the
// stage's input schema — the same error the engine's Bind raises at run
// time, caught statically. Filter expressions are validated by
// FilterSpec.Out already; map operators extend the schema without
// binding the expression, so the walk checks them itself (the
// differential fuzzer found this gap: a lint-clean flow whose map expr
// named a missing column compiled but failed mid-run).
func (l *linter) checkExprColumns(src string, ins []flowcheck.Input, entity string, line int) {
	if src == "" || len(ins) == 0 || ins[0].Schema == nil {
		return
	}
	sch := ins[0].Schema
	cols, err := expr.ReferencedColumns(src)
	if err != nil {
		return // FL002 reports unparsable expressions
	}
	for _, c := range cols {
		if sch.Has(c) {
			continue
		}
		fd := Finding{Rule: "FL003", Severity: Error, Entity: entity, Line: line,
			Message: fmt.Sprintf("column %q not found (have %s)", c, strings.Join(sch.Names(), ", "))}
		if hint := diagnose.Nearest(c, sch.Names()); hint != "" {
			fd.Hint = fmt.Sprintf("did you mean %q?", hint)
		}
		l.add(fd)
	}
}

var bindColumnRe = regexp.MustCompile(`column "([^"]+)" not found \(have ([^)]*)\)`)

// reportBindError classifies a spec's Out failure: FL020 duplicate
// output columns, FL003 everything else (missing columns get a
// did-you-mean hint against the in-scope schema).
func (l *linter) reportBindError(name string, def *flowfile.TaskDef, err error, ins []task.Input) {
	msg := cleanMsg(err.Error())
	rule := "FL003"
	if strings.Contains(msg, "duplicate column") {
		rule = "FL020"
	}
	fd := Finding{Rule: rule, Severity: Error, Entity: "T." + name, Line: def.Line, Message: msg}
	if m := bindColumnRe.FindStringSubmatch(msg); m != nil {
		if hint := diagnose.Nearest(m[1], strings.Split(m[2], ",")); hint != "" {
			fd.Hint = fmt.Sprintf("did you mean %q?", hint)
		}
	} else if m := regexp.MustCompile(`column "([^"]+)" not found`).FindStringSubmatch(msg); m != nil && len(ins) > 0 {
		if hint := diagnose.Nearest(m[1], ins[0].Schema.Names()); hint != "" {
			fd.Hint = fmt.Sprintf("did you mean %q?", hint)
		}
	}
	l.add(fd)
}

// configLine returns the line of a task's configuration key, falling
// back to the task declaration.
func configLine(def *flowfile.TaskDef, key string) int {
	if def.Config != nil {
		if n := def.Config.Get(key); n != nil && n.Line > 0 {
			return n.Line
		}
	}
	return def.Line
}

func quoteJoin(cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%q", c)
	}
	return strings.Join(parts, ", ")
}
