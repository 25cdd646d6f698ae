package analyze

import (
	"fmt"
	"strings"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/dag"
	"shareinsights/internal/diagnose"
	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// stageRec is one walked stage: the resolver's record of it plus the
// facts flowing in, kept for the rules, the backward liveness pass and
// the facts export.
type stageRec struct {
	dag.Stage
	// ins snapshots the stage's inputs (names, schemas, scopes) before it
	// ran.
	ins []flowcheck.Input
	// verdict is the filter constant-predicate verdict, "" otherwise.
	verdict string
}

// chainRec is one walked chain: its stages up to and including the first
// that did not bind, and — when ok, i.e. the resolver gave the chain a
// schema — the facts of its output.
type chainRec struct {
	chain  *dag.Chain
	stages []stageRec
	ok     bool
	scope  flowcheck.Scope
	card   flowcheck.Card
}

// walk runs the flowcheck transfer over the stages the resolver bound.
// It binds nothing itself: a chain with an unresolved input, an
// undefined or misconfigured task, or a stage that did not bind is not
// ok, and what depends on it is skipped silently — the resolver already
// holds the root cause.
func (a *analysis) walk(c *dag.Chain) *chainRec {
	rec := &chainRec{chain: c}
	ins := make([]flowcheck.Input, len(c.Inputs))
	for i, in := range c.Inputs {
		sc, resolved := a.scopes[in]
		if !resolved {
			return rec
		}
		ins[i] = flowcheck.Input{Name: in, Schema: a.g.Nodes[in].Schema, Scope: sc, Card: a.cards[in]}
	}
	for k, st := range c.Stages {
		rec.stages = append(rec.stages, stageRec{Stage: st, ins: ins})
		if st.Out == nil {
			return rec
		}
		res := flowcheck.TransferStage(c.Specs[k], st.Def, a.lookup, ins, st.Out)
		rec.stages[k].verdict = res.Verdict
		ins = []flowcheck.Input{{Name: ins[0].Name, Schema: st.Out, Scope: res.Scope, Card: res.Card}}
	}
	if c.Schema != nil {
		rec.ok, rec.scope, rec.card = true, ins[0].Scope, ins[0].Card
	}
	return rec
}

// checkChain runs the per-stage rules over a walked chain in stage
// order, reports the chain's own problem (a stage that did not bind, a
// fan-in with no task; a task problem is checkTasks') and — for a chain
// that bound — the filters the optimizer cannot hoist.
func (l *linter) checkChain(rec *chainRec) {
	specs := rec.chain.Specs
	for k, st := range rec.stages {
		l.checkStage(specs, k, st.Def, st.Name, st.ins)
		if st.Out != nil {
			l.checkFilterVerdict(specs[k], st.Def, st.Name, st.verdict)
		}
	}
	if p := rec.chain.Problem; p != nil {
		if p.Kind != dag.ProblemUndefinedTask && p.Kind != dag.ProblemUnknownType && p.Kind != dag.ProblemBadConfig {
			l.reportProblem(p)
		}
		return
	}
	if len(rec.stages) < len(specs) {
		return // an input is unresolved: nothing was walked
	}
	for _, bf := range dag.HoistFilters(specs).Blocked {
		name, blocker := rec.stages[bf.Index], rec.stages[bf.Blocker]
		msg := fmt.Sprintf("filter cannot be pushed ahead of T.%s", blocker.Name)
		if len(bf.Columns) > 0 {
			msg += fmt.Sprintf(" (it reads %s, which T.%s produces)", quoteJoin(bf.Columns), blocker.Name)
		}
		l.add(Finding{Rule: "FL050", Severity: Info, Entity: "T." + name.Name, Line: name.Def.Line,
			Message: msg + "; every row flows through that stage before it can be discarded"})
	}
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
