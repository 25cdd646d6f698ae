package flowcheck

import (
	"slices"

	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

// LiveIn computes, for each input of a stage, the columns that must be
// materialized so the stage can produce the liveOut set — the backward
// liveness transfer. A set is a bitset over the positions of the schema
// at its point: liveOut over out, the stage's output schema, and
// liveIn[i] over ins[i].Schema, one per input. LiveIn only adds to
// liveIn, so a caller unions several consumers' demand in one set.
// Unknown spec kinds conservatively keep every input column live, so a
// custom task can never cause a false dead-column report.
func LiveIn(sp task.Spec, def *flowfile.TaskDef, ins []Input, out *schema.Schema, liveOut []uint64, liveIn [][]uint64) {
	if len(liveIn) == 0 {
		return
	}
	dst, in := liveIn[0], ins[0].Schema
	switch t := sp.(type) {
	case *task.FilterSpec:
		carry(dst, in, liveOut, out, nil)
		markExpr(dst, in, t.Expr)
		mark(dst, in, t.By...)
	case *task.MapSpec:
		carry(dst, in, liveOut, out, t.OutColumns())
		markUses(dst, in, t, def)
	case *task.GroupBySpec:
		mark(dst, in, t.GroupBy...)
		for _, a := range t.Aggs {
			mark(dst, in, a.ApplyOn)
		}
	case *task.ProjectSpec, *task.LimitSpec, *task.UnionSpec:
		for i := range liveIn {
			carry(liveIn[i], ins[i].Schema, liveOut, out, nil)
		}
	case *task.SortSpec:
		carry(dst, in, liveOut, out, nil)
		markOrder(dst, in, t.OrderBy)
	case *task.DistinctSpec:
		carry(dst, in, liveOut, out, nil)
		if len(t.Columns) == 0 {
			all(dst, in)
		}
		mark(dst, in, t.Columns...)
	case *task.TopNSpec:
		carry(dst, in, liveOut, out, nil)
		mark(dst, in, t.GroupBy...)
		markOrder(dst, in, t.OrderBy)
	case *task.JoinSpec:
		liveInJoin(t, ins, liveOut, liveIn)
	default:
		for i := range liveIn {
			all(liveIn[i], ins[i].Schema)
		}
	}
}

// liveInJoin maps each live join output back through the join's binding
// to the one input column it reads, and keeps the join keys live.
func liveInJoin(t *task.JoinSpec, ins []Input, liveOut []uint64, liveIn [][]uint64) {
	if len(ins) == 2 {
		l, r := task.Input{Name: ins[0].Name, Schema: ins[0].Schema}, task.Input{Name: ins[1].Name, Schema: ins[1].Schema}
		if k, swapped, ok := t.BindJoin(nil, l, r); ok {
			left, right := liveIn[0], liveIn[1]
			if swapped {
				left, right = right, left
			}
			for _, i := range k.LeftKeys {
				set(left, i)
			}
			for _, i := range k.RightKeys {
				set(right, i)
			}
			for j, c := range k.Cols {
				if has(liveOut, j) && c.Right {
					set(right, c.Col)
				} else if has(liveOut, j) {
					set(left, c.Col)
				}
			}
			return
		}
	}
	for i := range liveIn {
		all(liveIn[i], ins[i].Schema)
	}
}

// markUses adds to dst, a set over in, the columns one map operator reads.
func markUses(dst []uint64, in *schema.Schema, m *task.MapSpec, def *flowfile.TaskDef) {
	if n := m.Expr(); n != nil {
		markExpr(dst, in, n)
		return
	}
	if def == nil || def.Config == nil {
		return
	}
	switch m.Operator {
	case "constant":
	case "concat":
		mark(dst, in, def.Config.StrList("transform")...)
	default:
		mark(dst, in, def.Config.Str("transform"))
	}
}

// markExpr adds to dst, a set over in, the columns an expression reads.
func markExpr(dst []uint64, in *schema.Schema, n expr.Node) {
	expr.Walk(n, func(m expr.Node) {
		if c, ok := m.(*expr.Col); ok {
			set(dst, in.Index(c.Name))
		}
	})
}

// carry adds to dst, a set over in, the columns of live, a set over out,
// that in has and except does not name. A stage that passes its input
// schema through (out == in) carries the set word by word.
func carry(dst []uint64, in *schema.Schema, live []uint64, out *schema.Schema, except []string) {
	if out == in && except == nil {
		for w := range dst {
			dst[w] |= live[w]
		}
		return
	}
	for j, c := range out.Columns() {
		if has(live, j) && !slices.Contains(except, c.Name) {
			set(dst, in.Index(c.Name))
		}
	}
}

// mark adds the named columns of s to dst; a name s lacks is skipped.
func mark(dst []uint64, s *schema.Schema, cols ...string) {
	for _, c := range cols {
		set(dst, s.Index(c))
	}
}

func markOrder(dst []uint64, s *schema.Schema, keys []task.OrderKey) {
	for _, k := range keys {
		set(dst, s.Index(k.Column))
	}
}

// all adds every column of s to dst.
func all(dst []uint64, s *schema.Schema) {
	for i := range s.Len() {
		set(dst, i)
	}
}

// set adds position i (none when negative) to a bitset.
func set(bits []uint64, i int) {
	if i >= 0 {
		bits[i/64] |= 1 << (i % 64)
	}
}

// has reports whether position i is in a bitset.
func has(bits []uint64, i int) bool { return bits[i/64]&(1<<(i%64)) != 0 }
