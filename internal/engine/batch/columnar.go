// Columnar execution: the batch engine's vectorized path.
//
// A stage runs on its colstore kernel whenever task.Bind binds one over
// its inputs and they convert (a boxed or time column does not), and on
// the row kernels otherwise; the executor's ColumnarOff mode keeps every
// stage on rows. The columnar path takes the pipeline's current table as
// a column batch (its own storage when it is column-backed, one
// conversion when it is not) and streams it through consecutive
// vectorized stages without materializing rows (a node's two-input first
// stage, the join, takes both inputs' batches). The choice is made
// before the stage runs: a bound kernel never hands its stage back. Both
// paths are semantically identical; the differential harness in
// internal/engine/enginetest asserts it.
package batch

import (
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// The modes of Executor.Columnar.
const (
	// ColumnarOn, like "", runs every stage that binds a kernel on it.
	ColumnarOn = "on"
	// ColumnarOff runs every stage on rows: the differential harness's
	// reference.
	ColumnarOff = "off"
)

// tryColumnar attempts one stage on the columnar path: a kernel over the
// pipeline's current table, or the join over a node's two inputs, as
// task.Bind binds it. out is nil when the stage should run on rows
// instead (the mode is off, the spec has no kernel for this input, or a
// table holds a column with no typed vector); err is a real stage
// failure. A column-backed table hands its batch over as is and the output wraps
// the kernel's batch, so consecutive columnar stages — and the nodes
// downstream — exchange vectors, never rows. The stage is specs[0]; when
// specs[1] fuses into its kernel (Bound.Fuse), the two run as one kernel
// call. n is the number of stages run: 0 for none.
func (p *pipeline) tryColumnar(specs []task.Spec, in []*table.Table, names []string) (out *table.Table, n int, err error) {
	spec := specs[0]
	_, one := spec.(task.Vectorizable)
	_, two := spec.(task.VectorizableJoin)
	if p.e.Columnar == ColumnarOff || !(one && len(in) == 1 || two && len(in) == 2) {
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
