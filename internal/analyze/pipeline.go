package analyze

import (
	"fmt"
	"slices"
	"strings"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/dag"
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
	// issues are what lowering the stage's expressions found, each
	// tagged with the task that owns the expression.
	issues []flowcheck.Issue
	// liveAfter is the column demand right after the stage, a bitset
	// over Out, set by the liveness pass on a chain that bound.
	liveAfter []uint64
}

// chainRec is one walked chain: its stages up to and including the first
// that did not bind, and — when ok, i.e. the resolver gave the chain a
// schema — the facts of its output. flow is the flow it is, nil for a
// widget source.
type chainRec struct {
	chain  *dag.Chain
	flow   *flowfile.Flow
	stages []stageRec
	ok     bool
	scope  flowcheck.Scope
	card   flowcheck.Card
}

// walk runs the flowcheck transfer over the stages the resolver bound,
// and over the first that did not for its expression issues. It binds
// nothing itself: a chain with an unresolved input, an undefined or
// misconfigured task, or a stage that did not bind is not ok, and what
// depends on it is skipped silently — the resolver already holds the
// root cause. The records and the inputs each stage (and the output)
// reads are carved from the slabs given.
func (a *Analysis) walk(c *dag.Chain, stages *[]stageRec, inSlab *[]flowcheck.Input) chainRec {
	rec := chainRec{chain: c}
	ins := carve(inSlab, len(c.Inputs))
	for i, in := range c.Inputs {
		o := a.objects[in] // nil for a node on a cycle, not yet met
		if o == nil || !o.resolved {
			return rec
		}
		ins[i] = flowcheck.Input{Name: in, Schema: o.node.Schema, Scope: o.scope, Card: o.card}
	}
	rec.stages = carve(stages, len(c.Stages))[:0]
	for k, st := range c.Stages {
		res := flowcheck.TransferStage(c.Specs[k], st.Def, ins, st.Out)
		rec.stages = append(rec.stages, stageRec{Stage: st, ins: ins, verdict: res.Verdict, issues: res.Issues})
		if st.Out == nil {
			return rec
		}
		next := carve(inSlab, 1)
		next[0] = flowcheck.Input{Name: ins[0].Name, Schema: st.Out, Scope: res.Scope, Card: res.Card}
		ins = next
	}
	if c.Schema != nil {
		rec.ok, rec.scope, rec.card = true, ins[0].Scope, ins[0].Card
	}
	return rec
}

// carve cuts the next n elements off a slab, with cap == len; a slab
// that is short is replaced by a fresh, exactly sized one.
func carve[T any](slab *[]T, n int) []T {
	if n > len(*slab) {
		*slab = make([]T, n)
	}
	part := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return part
}

// checkChain runs the per-stage rules over a walked chain in stage
// order, reports the chain's own problem (a stage that did not bind, a
// fan-in with no task; a task problem is checkTasks') and — for a chain
// that bound — the filters the optimizer cannot hoist.
func (l *linter) checkChain(rec *chainRec) {
	specs := rec.chain.Specs
	for k := range rec.stages {
		l.checkStage(specs, k, &rec.stages[k])
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
func (l *linter) checkFilterVerdict(def *flowfile.TaskDef, name, verdict string) {
	if verdict == "" {
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

// checkStage runs the per-stage rules: FL004/FL060/FL061/FL062
// expression findings (what the walk's lowering kept), FL063 on a bound
// filter, FL021 join key mismatches, FL051 ordering advisories. A
// missing column, a map expression's included, is the resolver's FL003
// (reportProblem).
func (l *linter) checkStage(specs []task.Spec, k int, st *stageRec) {
	def, ins := st.Def, st.ins
	entity := "T." + st.Name
	key := "expression"
	switch t := specs[k].(type) {
	case *task.FilterSpec:
		key = "filter_expression"
		if st.Out != nil {
			l.checkFilterVerdict(def, st.Name, st.verdict)
		}
	case *task.JoinSpec:
		l.checkJoinKeys(t, entity, def, ins)
	case *task.TopNSpec:
		for _, key := range t.OrderBy {
			if slices.Contains(t.GroupBy, key.Column) {
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
	for _, is := range st.issues {
		l.add(Finding{Rule: is.Rule, Severity: Severity(is.Severity), Entity: "T." + is.Task,
			Line: configLine(l.f.Tasks[is.Task], key), Message: is.Message, Hint: is.Hint})
	}
}

// checkJoinKeys compares the inferred types of paired join keys: FL021.
// The conflict predicate is flowcheck's coarse projection — identical to
// the pre-flowcheck rule.
func (l *linter) checkJoinKeys(j *task.JoinSpec, entity string, def *flowfile.TaskDef, ins []flowcheck.Input) {
	if len(ins) != 2 {
		return
	}
	left, right := ins[0].Scope, ins[1].Scope
	if ins[0].Name == j.RightName && ins[1].Name == j.LeftName && j.LeftName != j.RightName {
		left, right = right, left
	}
	for i := 0; i < len(j.LeftKeys) && i < len(j.RightKeys); i++ {
		lt, rt := left.TypeOf(j.LeftKeys[i]), right.TypeOf(j.RightKeys[i])
		if flowcheck.CoarseConflict(lt, rt) {
			l.add(Finding{Rule: "FL021", Severity: Warning, Entity: entity, Line: def.Line,
				Message: fmt.Sprintf("join keys %q (%s) and %q (%s) have different types; rows will never match",
					j.LeftKeys[i], lt.Coarse(), j.RightKeys[i], rt.Coarse())})
		}
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
