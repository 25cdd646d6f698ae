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
// every stage that implements it, unless its mode is off, and falls back
// to the row implementation when ok is false.
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

// Bound is a stage's kernel bound over its inputs: Vec over one, or
// Join over two, whose left input is the second when Swapped. !OK: the
// stage has no kernel over these inputs.
type Bound struct {
	Vec         colstore.Kernel
	Join        *colstore.Join
	Swapped, OK bool
	in          [2]Input
	n           int
	next        *Bound                // the kernel kept before this one
	fused       atomic.Pointer[Bound] // Fuse's answers, one per tail
	tail        Spec                  // of one of Fuse's answers: its tail
}

// Bind binds sp, a Vectorizable over one input or a VectorizableJoin
// over two. A built-in spec keeps what it binds, one kernel per input
// shape (the same names, and schemas with the same columns in the same
// order), for as long as it lives: the stages of a compiled program bind
// the first time a run takes them columnar, and later runs reuse the
// kernel; a spec built per request binds for that request. The shapes a
// spec meets are fixed by its program: one per flow that uses it, and
// one more where the plan hoists it. Kernels are read-only, and runs
// share them without a lock.
func Bind(env *Env, sp Spec, in []Input) *Bound {
	m, ok := sp.(memoized)
	if !ok {
		return bind(env, sp, in)
	}
	return keep(&m.derived().bound, func(b *Bound) bool {
		return slices.EqualFunc(b.in[:b.n], in, func(x, y Input) bool { return x.Name == y.Name && x.Schema.Equal(y.Schema) })
	}, func() *Bound { return bind(env, sp, in) })
}

// keep returns the kernel on list that match accepts, or else pushes the
// one build binds and returns it: one kernel per key, concurrent first
// binds included, without a lock.
func keep(list *atomic.Pointer[Bound], match func(*Bound) bool, build func() *Bound) *Bound {
	var k *Bound
	for {
		first := list.Load()
		for b := first; b != nil; b = b.next {
			if match(b) {
				return b
			}
		}
		if k == nil {
			k = build()
		}
		if k.next = first; list.CompareAndSwap(first, k) {
			return k
		}
	}
}

// bind binds sp over in, keeping nothing.
func bind(env *Env, sp Spec, in []Input) *Bound {
	k := new(Bound)
	if k.n = copy(k.in[:], in); k.n == 2 {
		k.Join, k.Swapped, k.OK = sp.(VectorizableJoin).BindJoin(env, in[0], in[1])
	} else {
		k.Vec, _, k.OK = sp.(Vectorizable).BindVec(env, in[0])
	}
	return k
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

// HasKernel reports whether a Vectorizable or VectorizableJoin spec's
// configuration has a columnar kernel: the part of BindVec's (or
// BindJoin's) decision that does not read the input schema. Over a
// schema the spec's Out accepts — any stage of a built graph — its
// kernel binds exactly when HasKernel holds, so the planner predicts
// paths with it without compiling anything.
func HasKernel(sp Spec) bool {
	switch s := sp.(type) {
	case *FilterSpec:
		return s.Expr != nil && len(s.By) == 0
	case *MapSpec:
		return s.Expr() != nil
	case *TopNSpec:
		return len(s.GroupBy) == 0
	}
	return true
}

// Fuses reports whether tail, the stage after head (whose inputs are
// in), runs inside head's kernel call when head runs columnar and tail
// binds: a sort then a limit run as one top-n, and an inner or left
// outer join then an expression filter that reads only probe (left)
// side columns run as a join that probes with the rows the filter keeps
// — the filter means the same on a probe row as on every output row the
// row yields. Bound.Fuse binds what it reports, and dag's explain marks
// it.
func Fuses(head, tail Spec, in []Input) bool {
	f, filter := tail.(*FilterSpec)
	switch h := head.(type) {
	case *SortSpec:
		_, ok := tail.(*LimitSpec)
		return ok
	case *JoinSpec:
		left, right, _, err := h.sides(in)
		if !filter || !HasKernel(f) || h.keepRight() || err != nil || left.Schema == nil || right.Schema == nil {
			return false
		}
		// An output column is a projected name, or the qualified source name
		// itself when nothing is projected.
		return !slices.ContainsFunc(expr.Columns(f.Expr), func(c string) bool {
			i := slices.IndexFunc(h.Project, func(p ProjPair) bool { return p.Out == c })
			if i >= 0 {
				c = h.Project[i].Qualified
			}
			src, err := h.source(c, left.Schema, right.Schema)
			return err != nil || src.side != 0 || i < 0 && len(h.Project) > 0
		})
	}
	return false
}

// Fuse returns k, head's kernel, with tail, the stage after head, run
// inside it — a sort's with the limit after it as one top-n, a join's
// with the filter after it as its Mask — or nil where Fuses refuses the
// pair or tail has no kernel. k keeps the answer per tail, so only the
// pair's first run decides.
func (k *Bound) Fuse(env *Env, head, tail Spec) *Bound {
	// No other stage takes one in, so k keeps no answer for it.
	switch head.(type) {
	case *SortSpec, *JoinSpec:
	default:
		return nil
	}
	f := keep(&k.fused, func(f *Bound) bool { return f.tail == tail }, func() *Bound {
		f := &Bound{tail: tail, Swapped: k.Swapped}
		if !Fuses(head, tail, k.in[:k.n]) {
			return f
		}
		if limit, ok := tail.(*LimitSpec); ok {
			f.Vec, f.OK = &colstore.TopN{Keys: k.Vec.(*colstore.Sort).Keys, Limit: limit.N}, true
		} else if mask, ok := Bind(env, tail, []Input{{Schema: k.Join.Out}}).Vec.(*colstore.Filter); ok {
			join := *k.Join
			join.Mask = mask
			f.Join, f.OK = &join, true
		}
		return f
	})
	if !f.OK {
		return nil
	}
	return f
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
	if !HasKernel(s) {
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
	if _, err := s.Out([]Input{in}); err != nil || !HasKernel(s) {
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
