package task

import (
	"slices"
	"sync/atomic"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/table/colstore"
)

// Vectorizable is implemented by specs that can compile themselves into
// a columnar kernel (internal/table/colstore). The batch engine binds
// a stage on its kernel wherever Kernel admits it, unless its mode is
// off, and falls back to the row implementation when ok is false.
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

// Kernel is the one rule for which stages run on columnar kernels, and
// explain (dag) and the batch engine both ask it: the number of stages
// at the head of specs one kernel call runs over in, the head's inputs,
// or 0 for rows. A sort, limit, group-by, expression filter, expression
// map or global topn over one input has a kernel, and a join over two.
// A sort then a limit run as one top-n, and an inner or left outer join
// then an expression filter reading only probe (left) side columns run
// as a join probing with the rows the filter keeps: the filter means the
// same on a probe row as on every output row it yields. Kernel binds
// nothing and reads no schema but that column check's. Over any stage of
// a built graph Bind binds the group Kernel answers, so only data (a
// boxed or time column) send an admitted stage to rows.
func Kernel(specs []Spec, in []Input) int {
	var next Spec
	if len(specs) > 1 {
		next = specs[1]
	}
	ok := len(in) == 1
	switch h := specs[0].(type) {
	case *FilterSpec:
		ok = ok && h.Expr != nil && len(h.By) == 0
	case *MapSpec:
		ok = ok && h.Expr() != nil
	case *TopNSpec:
		ok = ok && len(h.GroupBy) == 0
	case *LimitSpec, *GroupBySpec:
	case *SortSpec:
		if _, limit := next.(*LimitSpec); ok && limit {
			return 2
		}
	case *JoinSpec:
		if len(in) != 2 {
			return 0
		}
		f, filter := next.(*FilterSpec)
		if !filter || h.keepRight() || Kernel(specs[1:2], in[:1]) == 0 {
			return 1
		}
		left, right, _, err := h.sides(in)
		if err != nil || left.Schema == nil || right.Schema == nil {
			return 1
		}
		// An output column is a projected name, or the qualified source name
		// itself when nothing is projected.
		if !slices.ContainsFunc(expr.Columns(f.Expr), func(c string) bool {
			i := slices.IndexFunc(h.Project, func(p ProjPair) bool { return p.Out == c })
			if i >= 0 {
				c = h.Project[i].Qualified
			}
			src, err := h.source(c, left.Schema, right.Schema)
			return err != nil || src.side != 0 || i < 0 && len(h.Project) > 0
		}) {
			return 2
		}
	default:
		return 0
	}
	if !ok {
		return 0
	}
	return 1
}

// Bound is a kernel bound over its inputs: Vec over one, producing Out,
// or Join over two, whose left input is the second when Swapped. !OK:
// the group has no kernel over these inputs.
type Bound struct {
	Vec         colstore.Kernel
	Out         *schema.Schema
	Join        *colstore.Join
	Swapped, OK bool
}

// bound is one kernel Bind kept: the group's tail and the inputs it was
// bound for, and the kernel kept before it.
type bound struct {
	Bound
	tail Spec
	in   [2]Input
	n    int
	next *bound
}

// Bind binds specs, a group Kernel answers over in (its length), as one
// kernel: a sort's with the limit after it as one top-n, a join's with
// the filter after it as its Mask, or one stage's. A built-in spec keeps
// what it binds for its groups, one kernel per tail and input shape (the
// same names, and schemas with the same columns in the same order), for
// as long as it lives: the stages of a compiled program bind the first
// time a run takes them columnar, and later runs reuse the kernel; a spec
// built per request binds for that request. The shapes a spec meets are
// fixed by its program: one per flow that uses it, and one more where the
// plan hoists it. Kernels are read-only, and runs share them without a
// lock.
func Bind(env *Env, specs []Spec, in []Input) *Bound {
	m, ok := specs[0].(memoized)
	if !ok {
		k := new(Bound)
		bind(env, specs, in, k)
		return k
	}
	var tail Spec
	if len(specs) > 1 {
		tail = specs[1]
	}
	return keep(&m.derived().bound, func(b *bound) bool {
		return b.tail == tail && slices.EqualFunc(b.in[:b.n], in, func(x, y Input) bool { return x.Name == y.Name && x.Schema.Equal(y.Schema) })
	}, func() *bound {
		b := &bound{tail: tail}
		b.n = copy(b.in[:], in)
		bind(env, specs, in, &b.Bound)
		return b
	})
}

// keep returns the kernel on list that match accepts, or else pushes the
// one build binds and returns it: one kernel per key, concurrent first
// binds included, without a lock.
func keep(list *atomic.Pointer[bound], match func(*bound) bool, build func() *bound) *Bound {
	var k *bound
	for {
		first := list.Load()
		for b := first; b != nil; b = b.next {
			if match(b) {
				return &b.Bound
			}
		}
		if k == nil {
			k = build()
		}
		if k.next = first; list.CompareAndSwap(first, k) {
			return &k.Bound
		}
	}
}

// bind binds specs over in into k, keeping nothing.
func bind(env *Env, specs []Spec, in []Input, k *Bound) {
	if len(specs) > 1 && Kernel(specs, in) < len(specs) {
		return
	}
	if len(in) == 2 {
		k.Join, k.Swapped, k.OK = specs[0].(*JoinSpec).BindJoin(env, in[0], in[1])
	} else {
		k.Vec, k.Out, k.OK = specs[0].(Vectorizable).BindVec(env, in[0])
	}
	switch {
	case !k.OK || len(specs) == 1:
	case k.Join != nil:
		var mask Bound
		bind(env, specs[1:], []Input{{Schema: k.Join.Out}}, &mask)
		k.Join.Mask, k.OK = mask.Vec.(*colstore.Filter)
	default:
		k.Vec = &colstore.TopN{Keys: k.Vec.(*colstore.Sort).Keys, Limit: specs[1].(*LimitSpec).N}
	}
}

// BindJoin is BindVec's two-input sibling: the join over a and b, the
// node's inputs in its order, whose left input is b when swapped.
func (s *JoinSpec) BindJoin(env *Env, a, b Input) (k *colstore.Join, swapped, ok bool) {
	left, right, swapped, err := s.sides([]Input{a, b})
	if err != nil {
		return nil, false, false
	}
	out, slots, err := s.outPlan(left, right)
	if err != nil {
		return nil, false, false
	}
	k = &colstore.Join{
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
	return &colstore.Sort{Keys: sortKeys(s.OrderBy)}, in.Schema, true
}

// BindVec implements Vectorizable.
func (s *LimitSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	return &colstore.Limit{N: s.N}, in.Schema, true
}

// BindVec implements Vectorizable. Only expression mode vectorizes:
// interaction filters depend on live widget selections, which are
// per-request and cheap relative to expression scans.
func (s *FilterSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if Kernel([]Spec{s}, []Input{in}) == 0 {
		return nil, nil, false
	}
	out, err := s.Out([]Input{in})
	if err != nil {
		return nil, nil, false
	}
	ev, err := colstore.CompileVec(s.Expr, in.Schema)
	if err != nil {
		return nil, nil, false
	}
	return &colstore.Filter{Pred: ev}, out, true
}

// BindVec implements Vectorizable. Every registered aggregate binds: the
// kernel folds with the registry's own accumulator wherever it has no
// typed loop.
func (s *GroupBySpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	out, err := s.Out([]Input{in})
	if err != nil {
		return nil, nil, false
	}
	// Out has already required the key and aggregate columns.
	keys, _ := in.Schema.Require(s.GroupBy...)
	aggs := make([]colstore.Agg, len(s.Aggs))
	for i, a := range s.Aggs {
		f, err := Aggregate(a.Operator)
		if err != nil {
			return nil, nil, false
		}
		col := -1
		if a.ApplyOn != "" {
			col = in.Schema.Index(a.ApplyOn)
		}
		aggs[i] = colstore.Agg{Op: a.Operator, Col: col, New: f}
	}
	return &colstore.GroupBy{Keys: keys, Aggs: aggs, Out: out, SortKeys: s.orderKeys()}, out, true
}

// BindVec implements Vectorizable. The heap kernel covers one global
// group; partitioned topn keeps the row path.
func (s *TopNSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if _, err := s.Out([]Input{in}); err != nil || Kernel([]Spec{s}, []Input{in}) == 0 {
		return nil, nil, false
	}
	return &colstore.TopN{Keys: sortKeys(s.OrderBy), Limit: s.Limit}, in.Schema, true
}

// BindVec implements Vectorizable. Only the expr operator vectorizes;
// the text operators (extract, date, …) are dictionary- or
// tokenizer-bound and may fan out rows.
func (s *MapSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	n := s.Expr()
	if n == nil {
		return nil, nil, false
	}
	col := s.OutColumns()[0]
	out := in.Schema.ExtendOrSame(col)
	ev, err := colstore.CompileVec(n, in.Schema)
	if err != nil {
		return nil, nil, false
	}
	return &colstore.MapExpr{Eval: ev, Out: out, Slot: out.Index(col)}, out, true
}
