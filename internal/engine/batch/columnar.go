// Columnar execution: the batch engine's vectorized path.
//
// A group of stages runs on colstore.Fan, the engine's one stage runner,
// wherever task.Kernel admits it and task.Bind binds it over its inputs,
// and each stage runs alone through its Spec.Exec otherwise, as every
// stage does in the executor's ColumnarOff mode. A group is a node's
// steps (filters, maps, limits, a join's probe) pushed a morsel at a time
// into one sink (materialize, a group-by, a top-n or a sort), and an
// inline node's steps run the same way into the first group of each
// consumer. The columnar path takes a
// table as a column batch (its own storage when it is column-backed, one
// conversion when it is not), so consecutive groups — and the nodes
// downstream — exchange vectors, never rows; a boxed or time column is a
// vector of value.V. The choice is made before the group runs: a bound
// run never hands its stages back. Every mode means what
// docs/SEMANTICS.md says; the differential harness in
// internal/engine/enginetest holds each to a naive reference.
package batch

import (
	"context"
	"slices"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// ColumnarOff, as Executor.Columnar, runs each stage alone through its
// Spec.Exec, with no fan group and no inline node: every built-in task
// over its inputs' batches.
const ColumnarOff = "off"

// columnar runs the group task.Kernel answers at the head of specs over
// in on a colstore.Fan, and returns its output and the number of stages
// it ran: 0, and no output, when the stage runs alone through its
// Spec.Exec instead (the mode is off, or the group has no run over these
// inputs). err is a real stage failure.
func (p *pipeline) columnar(specs []task.Spec, in []*table.Table, names []string) (*table.Table, int, error) {
	var inputs [2]task.Input
	if p.e.Columnar == ColumnarOff || len(in) > len(inputs) {
		return nil, 0, nil
	}
	for i, t := range in {
		inputs[i].Schema = t.Schema()
		if len(in) == 2 && i < len(names) {
			inputs[i].Name = names[i]
		}
	}
	n := task.Kernel(specs, len(in))
	if n == 0 {
		return nil, 0, nil
	}
	k := task.Bind(p.env, specs[:n], inputs[:len(in)])
	if !k.OK {
		return nil, 0, nil
	}
	var outs []*colstore.Batch
	var st []colstore.FanStage
	err := p.guard(specs[0], func() (err error) {
		outs, st, err = k.Run(in)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	build := 0
	if len(in) == 2 {
		build = in[1].Len()
		if k.Swapped {
			build = in[0].Len()
		}
	}
	var buf [4]ranStage
	for _, r := range ranStages(buf[:0], specs[:n], st, 0, len(k.Fan.Chain), len(k.Fan.Chain), outs[0].Len(), build, "", "fused") {
		if err := r.on(p); err != nil {
			return nil, 0, err
		}
	}
	return outs[0].ToTable(), n, nil
}

// guard runs a fan, recovering a panic into a *PanicError of first's
// stage; on failure first's span is opened and flagged.
func (p *pipeline) guard(first task.Spec, run func() error) error {
	_, _, err := execStage(task.Describe(first), func() (*table.Table, int, error) { return nil, 0, run() })
	if err != nil && p.e.Tracer != nil {
		sid := p.open(first, PathColumnar)
		p.e.Tracer.SpanFlag(sid, "error")
		p.e.Tracer.EndSpan(sid)
	}
	return err
}

// fed is what an inline node's run handed one consumer: the output of
// its first group, the group's length, its steps' first fan stage and
// count and its sink's stage, and the stages after the group's first,
// which the consumer reports under its own span.
type fed struct {
	name                    string
	tbl                     *table.Table
	skip, from, steps, sink int
	pending                 []ranStage
}

// inline runs specs, the chain of the pipeline's node, an inline node
// (dag.NodePlan.Inline), over its input of schema sch — in, or, when in
// is nil, lazy source src, streamed where it may be and decoded whole
// where it may not — a morsel at a time into the first group of each
// consumer in to, on one colstore.Fan, and fills each consumer's fed. A
// consumer's group is a sink, steps into a sink (a colstore.Branch), or a
// join it feeds as the probe side over the build table tables holds.
// When via names an inline join that the node feeds as the probe side,
// the fan runs the join's chain after the node's, and to are the join's
// consumers. It returns the rows the chain kept and the stages it ran; ok
// is false when it declines — a group does not bind, or the fan declines
// — and the node then runs as any other, before any consumer sees an
// output. The node's stages, the join's, and each consumer's first report
// under the node's span, flagged inline, when the run ends.
func (p *pipeline) inline(ctx context.Context, g *dag.Graph, plan *dag.Plan, specs []task.Spec, sch *schema.Schema, in *table.Table, src *slot, via string, to []fed, tables func(string) *table.Table) (rows, stages int, ok bool, err error) {
	if err = ctx.Err(); err != nil {
		return 0, 0, false, err
	}
	k := task.Bind(p.env, specs, []task.Input{{Schema: sch}})
	if !k.OK || len(k.Fan.Chain) != len(specs) {
		return 0, 0, false, nil
	}
	f := colstore.Fan{Chain: k.Fan.Chain[:len(specs):len(specs)], Sinks: make([]colstore.Kernel, 0, len(to))}
	var build *colstore.Batch
	// join binds the join cspecs heads, over node from of schema out and
	// the build side, and appends its steps to the chain: false when it
	// has no run, or from is not its probe side.
	join := func(cspecs []task.Spec, ins []string, from string, out *schema.Schema) (*task.Bound, bool) {
		var inputs [2]task.Input
		for j, name := range ins {
			inputs[j] = task.Input{Name: name, Schema: out}
			if name != from {
				t := tables(name)
				if t == nil {
					return nil, false
				}
				inputs[j].Schema = t.Schema()
				build, _ = colstore.FromTable(t)
			}
		}
		ck := task.Bind(p.env, cspecs, inputs[:])
		if !ck.OK || (inputs[0].Name == from) == ck.Swapped {
			return nil, false
		}
		f.Chain = append(f.Chain, ck.Fan.Chain...)
		return ck, true
	}
	from, out := p.node, k.Out
	var vspecs []task.Spec
	if via != "" {
		vspecs = plan.Node(via).Specs
		vk, ok := join(vspecs, g.Nodes[via].Inputs, from, out)
		if !ok || len(vk.Fan.Chain) != len(vspecs) {
			return 0, 0, false, nil
		}
		from, out = via, vk.Out
	}
	nc, at := len(f.Chain), 0 // at: the next branch's first stage, past the sinks'
	for i, c := range to {
		cn, cspecs := g.Nodes[c.name], plan.Node(c.name).Specs
		n := task.Kernel(cspecs, len(cn.Inputs))
		if n == 0 {
			return 0, 0, false, nil
		}
		to[i].skip = n
		if len(cn.Inputs) == 2 && via == "" { // a fan probes once
			ck, ok := join(cspecs[:n], cn.Inputs, from, out)
			if !ok {
				return 0, 0, false, nil
			}
			to[i].from, to[i].steps = nc, len(ck.Fan.Chain)
			f.Sinks = append(f.Sinks, ck.Fan.Sinks[0])
			continue
		}
		ck := task.Bind(p.env, cspecs[:n], []task.Input{{Schema: out}})
		if !ck.OK || ck.Fan.Sinks[0] == colstore.Materialize {
			return 0, 0, false, nil
		}
		sink := ck.Fan.Sinks[0]
		if len(ck.Fan.Chain) > 0 {
			sink = &colstore.Branch{Chain: ck.Fan.Chain, Sink: sink}
			to[i].from, to[i].steps = at, len(ck.Fan.Chain)
			at += len(ck.Fan.Chain) + 1
		}
		f.Sinks = append(f.Sinks, sink)
	}
	for i := range to {
		c := &to[i]
		c.sink = len(f.Chain) + i
		if _, branch := f.Sinks[i].(*colstore.Branch); branch {
			c.from += len(f.Chain) + len(f.Sinks)
			c.sink = c.from + c.steps
		}
	}
	var outs []*colstore.Batch
	var st []colstore.FanStage
	err = p.guard(specs[0], func() (err error) {
		if in == nil {
			if outs, st, ok, err = src.stream(ctx, f, build); ok || err != nil {
				return err
			}
			if in, err = src.get(); err != nil {
				return nil // the source's error, which src keeps
			}
		}
		b, _ := colstore.FromTable(in)
		outs, st, ok, err = f.Run(b, build)
		return err
	})
	if err != nil || !ok {
		return 0, 0, false, err
	}
	nb := 0
	if build != nil {
		nb = build.Len()
	}
	var buf [4]ranStage
	ns := len(specs)
	for _, r := range ranStages(buf[:0], specs, st, 0, ns, -1, 0, 0, "inline", "inline") {
		if err := r.on(p); err != nil {
			return 0, 0, true, err
		}
	}
	stages = ns
	if via != "" {
		q := p.as(via, plan)
		for _, r := range ranStages(buf[:0], vspecs, st, ns, len(vspecs), -1, 0, nb, "inline", "inline") {
			if err := r.on(q); err != nil {
				return 0, 0, true, err
			}
		}
		stages += len(vspecs)
		p.mu.Lock()
		p.stats.RowsProduced[via] = st[len(f.Chain)].Rows
		p.mu.Unlock()
	}
	for i := range to {
		c := &to[i]
		ran := ranStages(buf[:0], plan.Node(c.name).Specs[:c.skip], st, c.from, c.steps, c.sink, outs[i].Len(), nb, "inline", "fused")
		if err := ran[0].on(p.as(c.name, plan)); err != nil {
			return 0, 0, true, err
		}
		c.tbl, c.pending, stages = colstore.Compact(outs[i].ToTable()), slices.Clone(ran[1:]), stages+c.skip
	}
	return st[ns].Rows, stages, true, nil
}

// as is p reporting for node name instead, under p's span.
func (p *pipeline) as(name string, plan *dag.Plan) *pipeline {
	q := *p
	q.node, q.queueWait = name, 0
	if p.e.Plan != nil {
		q.planTag = plan.Node(name).Summary()
	}
	return &q
}

// ranStage is one stage a fan ran, to report: its rows in and out, its
// time, and its span's flag ("fused" for a stage inside the group's
// first, "inline" for one an inline node's run ran).
type ranStage struct {
	spec    task.Spec
	in, out int
	took    time.Duration
	flag    string
}

// ranStages are the stages of specs, one group Kernel answered, that a
// fan ran: its steps are fan stages from, from+1, … — the first steps of
// them, the rows each hands the next being that next stage's rows in —
// and the rest its sink, stage sink, whose output holds out rows (none
// for an inline node's chain, sink -1). A join's rows in add its build
// side's. A sort with the limit after it is one top-n: the sort hands on
// every row. The group's first stage has flag first, the rest rest. They
// are appended to ran.
func ranStages(ran []ranStage, specs []task.Spec, st []colstore.FanStage, from, steps, sink, out, build int, first, rest string) []ranStage {
	for t, sp := range specs {
		ran = append(ran, ranStage{})
		r := &ran[len(ran)-1]
		r.spec, r.flag = sp, rest
		if t == 0 {
			r.flag = first
		}
		switch {
		case t < steps:
			s := st[from+t]
			r.in, r.out, r.took = s.Rows, st[from+t+1].Rows, s.Took
			if t == steps-1 && sink >= 0 && len(specs) == steps {
				r.took += st[sink].Took // the materialize sink's
			}
		case t == steps:
			r.in, r.out, r.took = st[sink].Rows, out, st[sink].Took
			if t+1 < len(specs) {
				r.out = r.in
			}
		default:
			r.in, r.out = st[sink].Rows, out
		}
		if _, join := sp.(*task.JoinSpec); join {
			r.in += build
		}
	}
	return ran
}

// on reports r on pipeline q: its span, its StageTiming and its budget
// charge.
func (r ranStage) on(q *pipeline) error {
	sid := q.open(r.spec, PathColumnar)
	if sid > 0 && r.flag != "" {
		q.e.Tracer.SpanFlag(sid, r.flag)
	}
	return q.record(r.spec, sid, PathColumnar, r.in, r.out, r.took)
}
