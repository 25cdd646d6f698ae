package task

import (
	"slices"
	"sync/atomic"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
)

// Vectorizable is implemented by specs that can compile themselves into
// a columnar kernel (internal/table/colstore). The batch engine binds
// a stage on its kernel wherever Kernel admits it, unless its mode is
// off, and runs the stage alone through its Exec when ok is false.
//
// BindVec never reports binding problems as errors: a configuration the
// kernel cannot handle — an unregistered aggregate, a missing column, an
// expression that does not compile — returns ok == false, and Exec, which
// binds the same group, returns the configuration's error. A stage Kernel
// does not admit (an interaction-mode filter, a grouped topn, a map
// operator that drops or repeats rows) binds no kernel, and runs alone
// through its Exec.
type Vectorizable interface {
	Spec
	BindVec(env *Env, in Input) (k colstore.Kernel, out *schema.Schema, ok bool)
}

// Kernel is the one rule for which stages run on the engine's runner
// (colstore.Fan), and explain (dag) and the batch engine both ask it: the
// number of stages at the head of specs one run takes over the head's
// inputs (that many), or 0 when the head runs alone through its Exec. A run is the
// longest head of steps and then at most one sink; with none, it
// materializes the last step's output:
//   - over two inputs the head is a join, a probe of the index it builds
//     over its build side. A right or full outer join runs alone: the
//     build rows no probe row joined come after every probe row, and a
//     filter must see their nulls;
//   - steps are an expression filter, a map whose operator keeps every
//     row (MapSpec.KeepsRows) and a limit. A filter after a probe reads
//     the joined rows, either side's columns, a left outer join's
//     unmatched row with null build columns;
//   - sinks are a group-by, a global topn and a sort, with the limit
//     after it as one top-n.
//
// Kernel binds nothing and reads no schema, only the input count. Over
// any stage of a built graph Bind binds the group Kernel answers, and
// every input converts to a batch, a boxed or time column included, so
// whatever the data an admitted stage runs on its kernel.
func Kernel(specs []Spec, inputs int) int {
	n := 0
	switch inputs {
	case 1:
	case 2:
		j, ok := specs[0].(*JoinSpec)
		switch {
		case !ok:
			return 0
		case j.keepRight():
			return 1
		}
		n = 1
	default:
		return 0
	}
	for ; n < len(specs); n++ {
		if Sink(specs[n]) {
			if _, sort := specs[n].(*SortSpec); sort {
				if _, limit := at(specs, n+1).(*LimitSpec); limit {
					return n + 2
				}
			}
			return n + 1
		}
		switch s := specs[n].(type) {
		case *FilterSpec:
			if s.Expr == nil || len(s.By) > 0 {
				return n
			}
		case *MapSpec:
			if !s.KeepsRows() {
				return n
			}
		case *LimitSpec:
		default:
			return n
		}
	}
	return n
}

// Sink reports whether s ends a run Kernel answers as its sink: a
// group-by, a global topn or a sort.
func Sink(s Spec) bool {
	switch s := s.(type) {
	case *GroupBySpec, *SortSpec:
		return true
	case *TopNSpec:
		return len(s.GroupBy) == 0
	}
	return false
}

// Probes reports whether s is a join with a run that starts by probing
// with its input named name: its left input, in a join that keeps no
// unmatched build row.
func Probes(s Spec, name string) bool {
	j, ok := s.(*JoinSpec)
	return ok && j.LeftName == name && !j.keepRight()
}

// at is specs[i], or nil past the end.
func at(specs []Spec, i int) Spec {
	if i < len(specs) {
		return specs[i]
	}
	return nil
}

// Bound is a group Kernel answers, bound over its inputs: Fan runs it,
// its steps into its sink or into Materialize, producing Out; the probe
// side of a join is the group's second input when Swapped. !OK: the
// group has no run over these inputs.
type Bound struct {
	Fan         *colstore.Fan
	Out         *schema.Schema
	Swapped, OK bool
}

// bound is one group Bind kept: the stages after its head and the inputs
// it was bound for, the run's kernels, and the group kept before it.
type bound struct {
	Bound
	kernels
	tail []Spec
	in   [2]Input
	n    int
	next *bound
}

// kernels holds a group's run and, for a short group, its kernels.
type kernels struct {
	fan   colstore.Fan
	chain [2]colstore.Kernel
	sink  [1]colstore.Kernel
	tail  [2]Spec
}

// Bind binds specs, a group Kernel answers over in (its length), as one
// run. A built-in spec keeps what it binds for the groups it heads, one
// per tail and input shape (the same names, and schemas with the same
// columns in the same order), for as long as it lives: the stages of a
// compiled program bind the first time a run takes them columnar, and
// later runs reuse the run; a spec built per request binds for that
// request. The shapes a spec meets are fixed by its program: one per flow
// that uses it, and one more where the plan hoists it. Runs are
// read-only, and share their kernels without a lock.
func Bind(env *Env, specs []Spec, in []Input) *Bound {
	m, ok := specs[0].(memoized)
	if !ok {
		b := new(bound)
		bind(env, specs, in, &b.Bound, &b.kernels)
		return &b.Bound
	}
	return keep(&m.derived().bound, func(b *bound) bool {
		return slices.Equal(b.tail, specs[1:]) && slices.EqualFunc(b.in[:b.n], in, func(x, y Input) bool { return x.Name == y.Name && x.Schema.Equal(y.Schema) })
	}, func() *bound {
		b := new(bound)
		b.n, b.tail = copy(b.in[:], in), append(b.kernels.tail[:0], specs[1:]...)
		bind(env, specs, in, &b.Bound, &b.kernels)
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

// bind binds specs over in into k, its run and kernels in ks.
func bind(env *Env, specs []Spec, in []Input, k *Bound, ks *kernels) {
	if Kernel(specs, len(in)) != len(specs) {
		return
	}
	f, cur, i := &ks.fan, in[0], 0
	f.Chain = ks.chain[:0]
	if len(in) == 2 {
		j, swapped, ok := specs[0].(*JoinSpec).BindJoin(env, in[0], in[1])
		if !ok {
			return
		}
		f.Chain, cur.Schema, k.Swapped, i = append(f.Chain, (*colstore.Probe)(j)), j.Out, swapped, 1
	}
	for ; i < len(specs); i++ {
		kk, out, ok := specs[i].(Vectorizable).BindVec(env, cur)
		if !ok {
			return
		}
		switch kk.(type) {
		case *colstore.Sort:
			if _, limit := at(specs, i+1).(*LimitSpec); limit {
				kk, i = &colstore.TopN{Keys: kk.(*colstore.Sort).Keys, Limit: specs[i+1].(*LimitSpec).N}, i+1
			}
			ks.sink[0], f.Sinks = kk, ks.sink[:]
		case *colstore.GroupBy, *colstore.TopN:
			ks.sink[0], f.Sinks = kk, ks.sink[:]
		default:
			f.Chain = append(f.Chain, kk)
		}
		cur.Schema = out
	}
	if f.Sinks == nil {
		ks.sink[0], f.Sinks = colstore.Materialize, ks.sink[:]
	}
	k.Fan, k.Out, k.OK = f, cur.Schema, true
}

// BindJoin is BindVec's two-input sibling: the join over a and b, the
// node's inputs in its order, whose left input is b when swapped.
func (s *JoinSpec) BindJoin(env *Env, a, b Input) (k *colstore.Join, swapped, ok bool) {
	k, swapped, err := s.kernel([]Input{a, b})
	return k, swapped, err == nil
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
	if Kernel([]Spec{s}, 1) == 0 {
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
	k, err := s.kernel(in)
	if err != nil {
		return nil, nil, false
	}
	return k, k.Out, true
}

// kernel binds the group-by over in, or returns what is wrong with its
// configuration there: a missing column, an unregistered aggregate.
func (s *GroupBySpec) kernel(in Input) (*colstore.GroupBy, error) {
	out, err := s.Out([]Input{in})
	if err != nil {
		return nil, err
	}
	// Out has already required the key and aggregate columns.
	keys, _ := in.Schema.Require(s.GroupBy...)
	aggs := make([]colstore.Agg, len(s.Aggs))
	for i, a := range s.Aggs {
		f, err := Aggregate(a.Operator)
		if err != nil {
			return nil, err
		}
		col := -1
		if a.ApplyOn != "" {
			col = in.Schema.Index(a.ApplyOn)
		}
		aggs[i] = colstore.Agg{Op: a.Operator, Col: col, New: f}
	}
	return &colstore.GroupBy{Keys: keys, Aggs: aggs, Out: out, SortKeys: s.orderKeys()}, nil
}

// execBound is the Exec of a spec whose kernel runs it: the group of s
// alone that Bind keeps for in's shape, run over their batches, or what
// keeps s from binding there.
func execBound(env *Env, s Spec, in []*table.Table, names []string) (*table.Table, error) {
	ins := inputsOf(in, names)
	k := Bind(env, []Spec{s}, ins)
	if !k.OK {
		return nil, bindErr(env, s, ins)
	}
	outs, _, err := k.Run(in)
	if err != nil {
		return nil, err
	}
	return outs[0].ToTable(), nil
}

// Run runs the bound group over in, the tables of the inputs it was bound
// for in their order, as batches: Fan.Must of the probe side first.
func (k *Bound) Run(in []*table.Table) ([]*colstore.Batch, []colstore.FanStage, error) {
	var bs [2]*colstore.Batch
	for i, t := range in {
		bs[i], _ = colstore.FromTable(t)
	}
	if k.Swapped {
		bs[0], bs[1] = bs[1], bs[0]
	}
	return k.Fan.Must(bs[0], bs[1])
}

// bindErr is the configuration error that keeps s from binding over in:
// Out's, or else an unregistered aggregate's, its expression's or its map
// operator's.
func bindErr(env *Env, s Spec, in []Input) (err error) {
	if _, err = s.Out(in); err == nil {
		switch s := s.(type) {
		case *GroupBySpec:
			_, err = s.kernel(in[0])
		case *FilterSpec:
			_, err = colstore.CompileVec(s.Expr, in[0].Schema)
		case *MapSpec:
			_, err = s.eval(env, in[0].Schema)
		}
	}
	return err
}

// BindVec implements Vectorizable. The heap kernel covers one global
// group; a partitioned topn runs alone, through Exec.
func (s *TopNSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if _, err := s.Out([]Input{in}); err != nil || Kernel([]Spec{s}, 1) == 0 {
		return nil, nil, false
	}
	return &colstore.TopN{Keys: sortKeys(s.OrderBy), Limit: s.Limit}, in.Schema, true
}

// BindVec implements Vectorizable: an operator that keeps every row.
func (s *MapSpec) BindVec(env *Env, in Input) (colstore.Kernel, *schema.Schema, bool) {
	if !s.KeepsRows() {
		return nil, nil, false
	}
	col := s.op.Output()
	out := in.Schema.ExtendOrSame(col)
	ev, err := s.eval(env, in.Schema)
	if err != nil {
		return nil, nil, false
	}
	return &colstore.MapExpr{Eval: ev, Out: out, Slot: out.Index(col)}, out, true
}
