package analyze

import (
	"fmt"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// The linter's type inference is flowcheck (the typed expression IR and
// fact lattice); this file adapts its output to findings. The legacy
// coarse column types survive as flowcheck's Type.Coarse projection, so
// FL004 and FL021 keep their exact historical wording while FL060–FL063
// report what only the fine lattice can prove.

// checkExprIssues lowers one stage's parsed expression through flowcheck
// and converts its issues to findings at the given entity/line.
func (l *linter) checkExprIssues(n expr.Node, sc flowcheck.Scope, entity string, line int) {
	_, issues := flowcheck.CheckNode(n, sc)
	for _, is := range issues {
		l.add(Finding{Rule: is.Rule, Severity: Severity(is.Severity), Entity: entity,
			Line: line, Message: is.Message, Hint: is.Hint})
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
