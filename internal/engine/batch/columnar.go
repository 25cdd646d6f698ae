// Columnar execution: the batch engine's vectorized path.
//
// A stage runs on its colstore kernel wherever task.Kernel admits it,
// task.Bind binds it over its inputs and they convert (a boxed or time
// column does not), and on the row kernels otherwise; the executor's
// ColumnarOff mode keeps every stage on rows. The columnar path takes
// the pipeline's current table as a column batch (its own storage when
// it is column-backed, one conversion when it is not) and streams it
// through consecutive vectorized stages without materializing rows (a
// node's two-input first stage, the join, takes both inputs' batches).
// The choice is made before the stage runs: a bound kernel never hands
// its stage back. Both paths are semantically identical; the
// differential harness in internal/engine/enginetest asserts it.
package batch

import (
	"context"

	"shareinsights/internal/dag"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// ColumnarOff, as Executor.Columnar, runs every stage on rows: the
// differential harness's reference.
const ColumnarOff = "off"

// tryColumnar attempts one stage on the columnar path: a kernel over the
// pipeline's current table, or the join over a node's two inputs, where
// task.Kernel admits the stage and task.Bind binds it. out is nil when
// the stage should run on rows instead (the mode is off, the stage has no
// kernel over these inputs, or a table holds a column with no typed
// vector); err is a real stage failure. A column-backed table hands its
// batch over as is and the output wraps the kernel's batch, so
// consecutive columnar stages — and the nodes downstream — exchange
// vectors, never rows. The stage is specs[0]; when task.Kernel groups
// specs[1] with it, the two run as one kernel call. n is the number of
// stages run: 0 for none.
func (p *pipeline) tryColumnar(specs []task.Spec, in []*table.Table, names []string) (out *table.Table, n int, err error) {
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
	n = task.Kernel(specs, inputs[:len(in)])
	if n == 0 {
		return nil, 0, nil
	}
	k := task.Bind(p.env, specs[:n], inputs[:len(in)])
	if !k.OK {
		return nil, 0, nil
	}
	order := [2]int{0, 1}
	if k.Swapped {
		order = [2]int{1, 0}
	}
	var bs [2]*colstore.Batch
	for i := range in {
		var ok bool
		if bs[i], ok = colstore.FromTable(in[order[i]]); !ok {
			return nil, 0, nil
		}
	}
	var tail task.Spec
	if n > 1 {
		tail = specs[1]
	}
	return p.runStage(specs[0], tail, PathColumnar, rowsIn(in), func() (*table.Table, int, error) {
		var b *colstore.Batch
		var err error
		mid := bs[0].Len()
		if k.Join != nil {
			b, mid, err = k.Join.Run(bs[0], bs[1])
		} else {
			b, err = k.Vec.Run(bs[0])
		}
		if err != nil {
			return nil, 0, err
		}
		return b.ToTable(), mid, nil
	})
}

// fan runs an inline node's chain (dag.NodePlan.Inline) over its input a
// morsel at a time into the first stage of each consumer in fed, binding
// every stage through task.Bind, and returns those stages' outputs, in
// fed's order, the rows the chain fed them and the stages run. firsts is
// nil when the fan declines — the input does not convert, a stage does
// not bind, or a map's morsel kind moves (colstore.Fan) — and the node
// then runs as any other, before any consumer sees an output. Each stage
// reports its rows, its time and one span flagged inline, opened when the
// pass ends: the chain's, then each consumer's, under the node's span.
func (p *pipeline) fan(ctx context.Context, specs []task.Spec, in *table.Table, fed []string, plan *dag.Plan) (firsts []*table.Table, rows, stages int, err error) {
	b, ok := colstore.FromTable(in)
	if err = ctx.Err(); err != nil || !ok {
		return nil, 0, 0, err
	}
	f := colstore.Fan{Chain: make([]colstore.Kernel, len(specs)), Sinks: make([]colstore.Kernel, len(fed))}
	one := []task.Input{{Schema: in.Schema()}}
	for i := range specs {
		k := task.Bind(p.env, specs[i:i+1], one)
		if !k.OK {
			return nil, 0, 0, nil
		}
		f.Chain[i], one[0].Schema = k.Vec, k.Out
	}
	for i, c := range fed {
		if f.Sinks[i] = task.Bind(p.env, plan.Node(c).Specs[:1], one).Vec; f.Sinks[i] == nil {
			return nil, 0, 0, nil
		}
	}
	outs, ok, err := f.Run(b)
	if err != nil || !ok {
		return nil, 0, 0, err
	}
	report := func(q *pipeline, sp task.Spec, st colstore.FanStage, out int) error {
		sid := q.open(sp, PathColumnar)
		if sid > 0 {
			q.e.Tracer.SpanFlag(sid, "inline")
		}
		return q.record(sp, sid, PathColumnar, st.Rows, out, st.Took)
	}
	nc := len(specs)
	for i, sp := range specs {
		if err := report(p, sp, f.Stages[i], f.Stages[i+1].Rows); err != nil {
			return nil, 0, 0, err
		}
	}
	firsts = make([]*table.Table, len(fed))
	for i, c := range fed {
		q, np := *p, plan.Node(c) // the stage is the consumer's
		q.node, q.queueWait = c, 0
		if p.e.Plan != nil {
			q.planTag = np.Summary()
		}
		firsts[i] = outs[i].ToTable()
		if err := report(&q, np.Specs[0], f.Stages[nc+i], outs[i].Len()); err != nil {
			return nil, 0, 0, err
		}
	}
	return firsts, f.Stages[nc].Rows, nc + len(fed), nil
}
