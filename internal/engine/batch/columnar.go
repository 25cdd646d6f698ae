// Columnar execution: the batch engine's vectorized path.
//
// The plan's columnar mode (dag.ResolveColumnar of the executor's mode)
// selects between the row kernels and the colstore kernels. The columnar
// path takes the pipeline's current table as a column batch (its own
// storage when it is column-backed, one conversion when it is not),
// streams it through consecutive vectorized stages without materializing
// rows (a node's two-input first stage, the join, takes both inputs'
// batches), and runs a stage on the row kernels instead whenever its
// spec has no kernel or an input does not convert. The choice is made
// before the stage runs: a bound kernel never hands its stage back. Both
// paths are semantically identical; the differential harness in
// internal/engine/enginetest asserts it.
package batch

import (
	"shareinsights/internal/dag"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// The planner modes of Executor.Columnar.
const (
	// ColumnarAuto vectorizes eligible stages on inputs of at least
	// dag.ColumnarAutoThreshold rows (batch conversion has a fixed cost
	// that tiny dashboard tables never amortize).
	ColumnarAuto = "auto"
	// ColumnarOn vectorizes every eligible stage regardless of size.
	ColumnarOn = "on"
	// ColumnarOff disables the columnar path.
	ColumnarOff = "off"
)

// tryColumnar attempts one stage on the columnar path: a single-input
// kernel over the pipeline's current table, or the join kernel over a
// node's two inputs. out is nil when the stage should run on the row
// path instead (the mode is off, the spec has no kernel for this input,
// auto mode's input is under dag.ColumnarAutoThreshold rows — the rule
// dag.predictPath applies to observed input sizes — or a table holds a
// column with no typed vector); err is a real stage failure. A
// column-backed table hands its batch over as is and the output wraps the
// kernel's batch, so consecutive columnar stages — and the nodes
// downstream — exchange vectors, never rows.
func (p *pipeline) tryColumnar(spec task.Spec, in []*table.Table, names []string) (out *table.Table, err error) {
	if p.mode == ColumnarOff {
		return nil, nil
	}
	if len(in) == 2 {
		return p.tryJoinStage(spec, in, names)
	}
	v, ok := spec.(task.Vectorizable)
	if len(in) != 1 || !ok || (p.mode == ColumnarAuto && in[0].Len() < dag.ColumnarAutoThreshold) {
		return nil, nil
	}
	ker, _, ok := v.BindVec(p.env, task.Input{Schema: in[0].Schema()})
	if !ok {
		return nil, nil
	}
	b, ok := colstore.FromTable(in[0])
	if !ok {
		return nil, nil
	}
	return p.runStage(task.Describe(spec), PathColumnar, b.Len(), func() (*table.Table, error) {
		res, err := ker.Run(b)
		if err != nil {
			return nil, err
		}
		return res.ToTable(), nil
	})
}

// tryJoinStage is tryColumnar for a node's two-input first stage: the
// hash-join kernel over both inputs' batches. Auto mode thresholds on
// the probe (left) side, the one the kernel's work scales with row by
// row; the stage reports both inputs as its rows in, as the row join
// does.
func (p *pipeline) tryJoinStage(spec task.Spec, in []*table.Table, names []string) (out *table.Table, err error) {
	v, ok := spec.(task.VectorizableJoin)
	if !ok {
		return nil, nil
	}
	inputs := make([]task.Input, 2)
	for i, t := range in {
		inputs[i].Schema = t.Schema()
		if i < len(names) {
			inputs[i].Name = names[i]
		}
	}
	ker, swapped, ok := v.BindJoin(p.env, inputs[0], inputs[1])
	if !ok {
		return nil, nil
	}
	left, right := in[0], in[1]
	if swapped {
		left, right = right, left
	}
	if p.mode == ColumnarAuto && left.Len() < dag.ColumnarAutoThreshold {
		return nil, nil
	}
	lb, ok := colstore.FromTable(left)
	if !ok {
		return nil, nil
	}
	rb, ok := colstore.FromTable(right)
	if !ok {
		return nil, nil
	}
	return p.runStage(task.Describe(spec), PathColumnar, rowsIn(in), func() (*table.Table, error) {
		res, err := ker.Run(lb, rb)
		if err != nil {
			return nil, err
		}
		return res.ToTable(), nil
	})
}
