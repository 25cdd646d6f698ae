package analyze

import (
	"fmt"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// liveness is the backward liveness pass: starting from what the outside
// world can observe (endpoints, published objects, widget bindings,
// chains the walk could not analyze — all conservatively fully live), it
// propagates column demand backward through every walked flow. Source
// columns that are fetched but unused become facts only
// (projection-pushdown input for the optimizer), not findings — the flow
// author often cannot change a source's schema.
func (a *analysis) liveness() {
	a.full = map[string]bool{}
	a.live = map[string]map[string]bool{}
	a.consumed = map[string]bool{}

	// Externally visible objects need every column.
	for _, name := range a.f.DataOrder {
		d := a.f.Data[name]
		if d.Endpoint || d.Publish != "" {
			a.full[name] = true
		}
	}
	// Widgets may render any column of their source pipeline's inputs;
	// their demand is not tracked column-by-column.
	for _, c := range a.g.Widgets {
		for _, in := range c.Inputs {
			a.full[in] = true
			a.consumed[in] = true
		}
	}
	// A flow the walk could not analyze may read anything.
	for _, fl := range a.f.Flows {
		if fl.Pipeline == nil {
			continue
		}
		rec := a.flowRecs[fl]
		for _, in := range fl.Pipeline.Inputs {
			a.consumed[in.Name] = true
			if rec == nil || !rec.ok {
				a.full[in.Name] = true
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, fl := range a.f.Flows {
			rec := a.flowRecs[fl]
			if rec == nil || !rec.ok {
				continue
			}
			sets, _ := a.backProp(rec, a.outLive(fl.Outputs))
			for j, name := range rec.chain.Inputs {
				if j >= len(sets) || a.full[name] {
					continue
				}
				if a.live[name] == nil {
					a.live[name] = map[string]bool{}
				}
				for c := range sets[j] {
					if !a.live[name][c] {
						a.live[name][c] = true
						changed = true
					}
				}
			}
		}
	}
}

// checkDeadColumns reports FL064: a computed column nothing downstream
// reads. Deduplicated by task and column — a task shared by several
// flows reports once.
func (l *linter) checkDeadColumns() {
	seen := map[string]bool{}
	for _, fl := range l.f.Flows {
		rec := l.flowRecs[fl]
		if rec == nil || !rec.ok {
			continue
		}
		_, liveAfter := l.backProp(rec, l.outLive(fl.Outputs))
		for k, st := range rec.stages {
			for _, c := range computedCols(rec.chain.Specs[k]) {
				if liveAfter[k][c] || seen[st.Name+"\x00"+c] {
					continue
				}
				seen[st.Name+"\x00"+c] = true
				l.add(Finding{Rule: "FL064", Severity: Info, Entity: "T." + st.Name, Line: st.Def.Line,
					Message: fmt.Sprintf("column %q is computed but never used downstream — no endpoint, widget, filter or later task reads it", c),
					Hint:    "drop the column, or remove the task if nothing else needs it"})
			}
		}
	}
}

// outLive is the union of column demand over a flow's output objects; a
// fully-live output expands to its whole schema.
func (a *analysis) outLive(outs []flowfile.Ref) map[string]bool {
	demand := map[string]bool{}
	for _, o := range outs {
		if a.full[o.Name] {
			if s := a.g.Nodes[o.Name].Schema; s != nil {
				for _, n := range s.Names() {
					demand[n] = true
				}
			}
			continue
		}
		for c := range a.live[o.Name] {
			demand[c] = true
		}
	}
	return demand
}

// backProp pushes a demand set backward through one walked chain. It
// returns the per-pipeline-input demand and, for FL064, the demand set
// live immediately after each stage.
func (a *analysis) backProp(rec *chainRec, liveOut map[string]bool) ([]map[string]bool, []map[string]bool) {
	liveAfter := make([]map[string]bool, len(rec.stages))
	cur := liveOut
	for k := len(rec.stages) - 1; k >= 0; k-- {
		liveAfter[k] = cur
		st := rec.stages[k]
		sets := flowcheck.LiveIn(rec.chain.Specs[k], st.Def, a.lookup, st.ins, cur)
		if k == 0 {
			return sets, liveAfter
		}
		if len(sets) > 0 {
			cur = sets[0]
		} else {
			cur = map[string]bool{}
		}
	}
	// No stages: every input feeds the output unchanged.
	sets := make([]map[string]bool, len(rec.chain.Inputs))
	for i := range sets {
		c := map[string]bool{}
		for k := range liveOut {
			c[k] = true
		}
		sets[i] = c
	}
	return sets, liveAfter
}

// computedCols names the columns a stage derives (as opposed to carries):
// map and parallel operator outputs and group-by aggregate fields.
func computedCols(sp task.Spec) []string {
	switch t := sp.(type) {
	case *task.MapSpec:
		return t.OutColumns()
	case *task.ParallelSpec:
		var out []string
		for _, sub := range t.Subs {
			if ms, ok := sub.(*task.MapSpec); ok {
				out = append(out, ms.OutColumns()...)
			}
		}
		return out
	case *task.GroupBySpec:
		var out []string
		for _, a := range t.Aggs {
			out = append(out, a.OutField)
		}
		return out
	}
	return nil
}
