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

// tryColumnar attempts one stage on the columnar path: a kernel over the
// pipeline's current table, or the join over a node's two inputs, as
// task.Bind binds it. out is nil when the stage should run on
// rows instead (the mode is off, the spec has no kernel for this input,
// auto mode's input is under dag.ColumnarAutoThreshold rows — for a join,
// its probe (left) side, the one its work scales with — or a table holds
// a column with no typed vector); err is a real stage failure. A
// column-backed table hands its batch over as is and the output wraps
// the kernel's batch, so consecutive columnar stages — and the nodes
// downstream — exchange vectors, never rows. The stage is specs[0]; when
// specs[1] fuses into its kernel (Bound.Fuse), the two run as one kernel
// call. n is the number of stages run: 0 for none.
func (p *pipeline) tryColumnar(specs []task.Spec, in []*table.Table, names []string) (out *table.Table, n int, err error) {
	spec := specs[0]
	small := func(t *table.Table) bool { return p.mode == ColumnarAuto && t.Len() < dag.ColumnarAutoThreshold }
	_, one := spec.(task.Vectorizable)
	_, two := spec.(task.VectorizableJoin)
	if p.mode == ColumnarOff || !(one && len(in) == 1 || two && len(in) == 2) || small(in[0]) && (one || small(in[1])) {
		return nil, 0, nil
	}
	var inputs [2]task.Input
	for i, t := range in {
		inputs[i].Schema = t.Schema()
		if two && i < len(names) {
			inputs[i].Name = names[i]
		}
	}
	k := task.Bind(p.env, spec, inputs[:len(in)])
	order := [2]int{0, 1}
	if k.Swapped {
		order = [2]int{1, 0}
	}
	if !k.OK || two && small(in[order[0]]) {
		return nil, 0, nil
	}
	var bs [2]*colstore.Batch
	for i := range in {
		var ok bool
		if bs[i], ok = colstore.FromTable(in[order[i]]); !ok {
			return nil, 0, nil
		}
	}
	var tail task.Spec
	if len(specs) > 1 {
		if f := k.Fuse(p.env, spec, specs[1]); f != nil {
			k, tail = f, specs[1]
		}
	}
	return p.runStage(spec, tail, PathColumnar, rowsIn(in), func() (*table.Table, int, error) {
		var b *colstore.Batch
		var err error
		mid := bs[0].Len()
		if two {
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
