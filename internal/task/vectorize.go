package task

import (
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
)

// Vectorizable is implemented by specs that can compile themselves into
// a columnar kernel (internal/table/colstore). The batch engine probes
// for it when the planner's columnar decision allows, and falls back to
// the row implementation when ok is false.
//
// BindVec never reports binding problems as errors: a configuration the
// kernel cannot handle — an interaction-mode filter, an unregistered
// aggregate, a missing column — returns ok == false, and the row path
// (which validates the same configuration) produces the authoritative
// error or result.
type Vectorizable interface {
	Spec
	BindVec(env *Env, in Input) (k colstore.Kernel, out *schema.Schema, ok bool)
}

// VectorizableJoin is Vectorizable's two-input sibling, implemented by
// the join: the one operator whose kernel takes two batches. The engine
// probes for it when a node's first stage has two inputs. Like BindVec,
// BindJoin reports a configuration it cannot bind as ok == false and
// leaves the error to the row path.
type VectorizableJoin interface {
	Spec
	// BindJoin binds the join over the node's two inputs in the order
	// the node lists them. swapped reports that the kernel's left input
	// is b, its right input a.
	BindJoin(env *Env, a, b Input) (k *colstore.Join, swapped, ok bool)
}

// BindJoin implements VectorizableJoin.
func (s *JoinSpec) BindJoin(env *Env, a, b Input) (*colstore.Join, bool, bool) {
	left, right, swapped, err := s.sides([]Input{a, b})
	if err != nil {
		return nil, false, false
	}
	out, slots, err := s.outPlan(left, right)
	if err != nil {
		return nil, false, false
	}
	k := &colstore.Join{
		KeepLeft:  s.keepLeft(),
		KeepRight: s.keepRight(),
		Cols:      make([]colstore.JoinCol, len(slots)),
		Out:       out,
	}
	// outPlan has already required the key columns.
	k.LeftKeys, _ = left.Schema.Require(s.LeftKeys...)
	k.RightKeys, _ = right.Schema.Require(s.RightKeys...)
	for i, sl := range slots {
		k.Cols[i] = colstore.JoinCol{Right: sl.side == 1, Col: sl.idx}
	}
	return k, swapped, true
}

// BindVec implements Vectorizable.
func (s *SortSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if _, err := s.Out([]Input{in}); err != nil {
		return nil, nil, false
	}
	return &colstore.Sort{Keys: s.sortKeys()}, in.Schema, true
}

// BindVec implements Vectorizable.
func (s *LimitSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	return &colstore.Limit{N: s.N}, in.Schema, true
}

// BindVec implements Vectorizable. Only expression mode vectorizes:
// interaction filters depend on live widget selections, which are
// per-request and cheap relative to expression scans.
func (s *FilterSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if s.Expression == "" || len(s.By) > 0 {
		return nil, nil, false
	}
	out, err := s.Out([]Input{in})
	if err != nil {
		return nil, nil, false
	}
	ev, err := colstore.CompileVecSrc(s.Expression, in.Schema)
	if err != nil {
		return nil, nil, false
	}
	return &colstore.Filter{Pred: ev}, out, true
}

// vecAggOps maps aggregate operator names to their columnar kernels.
// The remaining registry entries (count_distinct, first, last, stddev,
// median, user aggregates) keep the row accumulators.
var vecAggOps = map[string]colstore.AggOp{
	"count": colstore.AggCount,
	"sum":   colstore.AggSum,
	"avg":   colstore.AggAvg,
	"min":   colstore.AggMin,
	"max":   colstore.AggMax,
}

// BindVec implements Vectorizable.
func (s *GroupBySpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	out, err := s.Out([]Input{in})
	if err != nil {
		return nil, nil, false
	}
	keys, err := in.Schema.Require(s.GroupBy...)
	if err != nil {
		return nil, nil, false
	}
	aggs := make([]colstore.Agg, len(s.Aggs))
	for i, a := range s.Aggs {
		op, ok := vecAggOps[a.Operator]
		if !ok {
			return nil, nil, false
		}
		col := -1
		if a.ApplyOn != "" {
			if col = in.Schema.Index(a.ApplyOn); col < 0 {
				return nil, nil, false
			}
		}
		aggs[i] = colstore.Agg{Op: op, Col: col}
	}
	// Output ordering replicates hashGrouper.Result: the first
	// aggregate descending under orderby_aggregates, then group keys
	// ascending.
	sortKeys := make([]table.SortKey, 0, len(s.GroupBy)+1)
	if s.OrderByAggregates && len(s.Aggs) > 0 {
		sortKeys = append(sortKeys, table.SortKey{Column: s.Aggs[0].OutField, Desc: true})
	}
	for _, c := range s.GroupBy {
		sortKeys = append(sortKeys, table.SortKey{Column: c})
	}
	return &colstore.GroupBy{Keys: keys, Aggs: aggs, Out: out, SortKeys: sortKeys}, out, true
}

// BindVec implements Vectorizable. The heap kernel covers the common
// dashboard shape — one global group, one order key; partitioned or
// multi-key topn keeps the row path.
func (s *TopNSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if len(s.GroupBy) != 0 || len(s.OrderBy) != 1 {
		return nil, nil, false
	}
	key := in.Schema.Index(s.OrderBy[0].Column)
	if key < 0 {
		return nil, nil, false
	}
	return &colstore.TopN{Key: key, Desc: s.OrderBy[0].Desc, Limit: s.Limit}, in.Schema, true
}

// BindVec implements Vectorizable. Only the expr operator vectorizes;
// the text operators (extract, date, …) are dictionary- or
// tokenizer-bound and may fan out rows.
func (s *MapSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	op, ok := s.op.(*exprOperator)
	if !ok {
		return nil, nil, false
	}
	out := in.Schema.ExtendOrSame(op.output)
	ev, err := colstore.CompileVecSrc(op.source, in.Schema)
	if err != nil {
		return nil, nil, false
	}
	return &colstore.MapExpr{Eval: ev, Out: out, Slot: out.Index(op.output)}, out, true
}
