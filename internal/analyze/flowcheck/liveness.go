package flowcheck

import (
	"strings"

	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// LiveIn computes, for each input of a stage, the columns that must be
// materialized so the stage can produce the liveOut set — the backward
// liveness transfer. Unknown spec kinds conservatively keep every input
// column live, so a custom task can never cause a false dead-column
// report.
func LiveIn(sp task.Spec, def *flowfile.TaskDef, lookup TaskLookup, ins []Input, liveOut map[string]bool) []map[string]bool {
	out := make([]map[string]bool, len(ins))
	for i := range out {
		out[i] = map[string]bool{}
	}
	if len(out) == 0 {
		return out
	}
	switch t := sp.(type) {
	case *task.FilterSpec:
		copySet(out[0], liveOut)
		addCols(out[0], expr.Columns(t.Expr))
		addCols(out[0], t.By)
	case *task.MapSpec:
		copySetExcept(out[0], liveOut, m2set(t.OutColumns()))
		addCols(out[0], mapUses(t, def))
	case *task.ParallelSpec:
		defined := map[string]bool{}
		var uses []string
		for i, sub := range t.Subs {
			ms, ok := sub.(*task.MapSpec)
			if !ok {
				continue
			}
			for _, c := range ms.OutColumns() {
				defined[c] = true
			}
			if i < len(t.Names) && lookup != nil {
				uses = append(uses, mapUses(ms, lookup(t.Names[i]))...)
			}
		}
		copySetExcept(out[0], liveOut, defined)
		addCols(out[0], uses)
	case *task.GroupBySpec:
		addCols(out[0], t.GroupBy)
		for _, a := range t.Aggs {
			if a.ApplyOn != "" {
				out[0][a.ApplyOn] = true
			}
		}
	case *task.ProjectSpec:
		copySet(out[0], liveOut)
	case *task.SortSpec:
		copySet(out[0], liveOut)
		addCols(out[0], orderCols(t.OrderBy))
	case *task.DistinctSpec:
		copySet(out[0], liveOut)
		if len(t.Columns) == 0 {
			if ins[0].Schema != nil {
				addCols(out[0], ins[0].Schema.Names())
			} else {
				return allLive(ins)
			}
		} else {
			addCols(out[0], t.Columns)
		}
	case *task.UnionSpec:
		for i := range out {
			copySet(out[i], liveOut)
		}
	case *task.LimitSpec:
		copySet(out[0], liveOut)
	case *task.TopNSpec:
		copySet(out[0], liveOut)
		addCols(out[0], t.GroupBy)
		addCols(out[0], orderCols(t.OrderBy))
	case *task.JoinSpec:
		liveInJoin(t, ins, liveOut, out)
	default:
		return allLive(ins)
	}
	return out
}

// liveInJoin maps live (possibly projected) join outputs back to each
// side's columns and keeps the join keys live.
func liveInJoin(t *task.JoinSpec, ins []Input, liveOut map[string]bool, out []map[string]bool) {
	if len(ins) != 2 {
		for i := range out {
			if ins[i].Schema != nil {
				addCols(out[i], ins[i].Schema.Names())
			}
		}
		return
	}
	// Live output → qualified name.
	qualified := map[string]bool{}
	if len(t.Project) > 0 {
		for _, p := range t.Project {
			if liveOut[p.Out] {
				qualified[p.Qualified] = true
			}
		}
	} else {
		copySet(qualified, liveOut)
	}
	for i, in := range ins {
		keys := t.LeftKeys
		if in.Name == t.RightName {
			keys = t.RightKeys
		}
		addCols(out[i], keys)
		prefix := in.Name + "_"
		for q := range qualified {
			if strings.HasPrefix(q, prefix) {
				out[i][strings.TrimPrefix(q, prefix)] = true
			}
		}
	}
}

// mapUses names the input columns one map operator reads.
func mapUses(m *task.MapSpec, def *flowfile.TaskDef) []string {
	if n := m.Expr(); n != nil {
		return expr.Columns(n)
	}
	if def == nil || def.Config == nil {
		return nil
	}
	switch m.Operator {
	case "constant":
		return nil
	case "concat":
		return def.Config.StrList("transform")
	}
	if c := def.Config.Str("transform"); c != "" {
		return []string{c}
	}
	return nil
}

func orderCols(keys []task.OrderKey) []string {
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.Column)
	}
	return out
}

func copySet(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

func copySetExcept(dst, src, except map[string]bool) {
	for k := range src {
		if !except[k] {
			dst[k] = true
		}
	}
}

func addCols(dst map[string]bool, cols []string) {
	for _, c := range cols {
		if c != "" {
			dst[c] = true
		}
	}
}

func m2set(cols []string) map[string]bool {
	out := make(map[string]bool, len(cols))
	for _, c := range cols {
		out[c] = true
	}
	return out
}

// allLive marks every column of every input live.
func allLive(ins []Input) []map[string]bool {
	out := make([]map[string]bool, len(ins))
	for i, in := range ins {
		out[i] = map[string]bool{}
		if in.Schema != nil {
			addCols(out[i], in.Schema.Names())
		}
	}
	return out
}
