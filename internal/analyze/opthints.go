package analyze

import (
	"sort"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/dag"
	"shareinsights/internal/task"
)

// Hints is the static-analysis feed for the cost-based optimizer
// (dag.Optimize), used when a flow has no run history yet: flowcheck
// evidence instead of observed evidence.
type Hints struct {
	// Selectivity maps dag.HintKey(output, stage) to a proven
	// selectivity: 0 for a filter whose predicate is always false, 1 for
	// always true. Only provable stages appear — everything else is left
	// to the heuristic.
	Selectivity map[string]float64
	// DeadSourceColumns lists, per source data object, declared columns
	// no downstream stage ever reads — the projection-pushdown feed.
	// Columns are sorted.
	DeadSourceColumns map[string][]string
}

// OptimizerHints analyzes an already resolved graph — the transfer and
// liveness passes only, no rule — and extracts the optimizer's static
// evidence: constant-predicate filter verdicts as selectivity hints, and
// fetched-but-unused source columns for projection pushdown. sources
// optionally seeds source column facts (Options.SourceScopes). Broken
// flows contribute nothing (the optimizer then simply has no static
// evidence for them, which is safe).
func OptimizerHints(g *dag.Graph, sources map[string]flowcheck.Scope) Hints {
	a := analyzeGraph(g, sources)
	h := Hints{
		Selectivity:       map[string]float64{},
		DeadSourceColumns: map[string][]string{},
	}
	for _, fl := range g.File.Flows {
		rec := a.flowRecs[fl]
		if rec == nil || !rec.ok {
			continue
		}
		for k, st := range rec.stages {
			var sel float64
			switch st.verdict {
			case "always_false":
				sel = 0
			case "always_true":
				sel = 1
			default:
				continue
			}
			desc := task.Describe(rec.chain.Specs[k])
			for _, o := range fl.Outputs {
				h.Selectivity[dag.HintKey(o.Name, desc)] = sel
			}
		}
	}
	// A dead computed column is FL064 material, not a fetch to trim.
	for _, name := range g.Sources() {
		if dead := a.deadColumns(name); len(dead) > 0 {
			sort.Strings(dead)
			h.DeadSourceColumns[name] = dead
		}
	}
	return h
}

// PlanOptions assembles dag.PlanOptions from these hints plus an
// optional observed-statistics feed; stats win over hints inside the
// planner's evidence chain (history → facts → heuristic).
func (h Hints) PlanOptions(stats dag.StatsFn) dag.PlanOptions {
	return dag.PlanOptions{
		Stats:             stats,
		Hints:             h.Selectivity,
		DeadSourceColumns: h.DeadSourceColumns,
	}
}
