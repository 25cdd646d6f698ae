// Columnar execution: the batch engine's vectorized path.
//
// Per node, the plan's columnar mode (dag.ResolveColumnar: the
// `columnar:` data detail, or the executor default) selects between the
// row kernels and the colstore kernels. The columnar path takes the pipeline's current table as a
// column batch (its own storage when it is column-backed, one
// conversion when it is not), streams it through consecutive vectorized
// stages without materializing rows (a node's two-input first stage, the
// join, takes both inputs' batches), and falls back to the row kernels
// — per stage — whenever a spec, schema or value distribution has no
// typed path. Both paths are semantically identical; the differential harness
// in internal/engine/enginetest asserts it.
package batch

import (
	"shareinsights/internal/dag"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// The planner modes of the `columnar:` data detail.
const (
	// ColumnarAuto vectorizes eligible stages on inputs of at least
	// dag.ColumnarAutoThreshold rows (batch conversion has a fixed cost
	// that tiny dashboard tables never amortize), and never splits a
	// fusable row-local run for a partially vectorizable chain.
	ColumnarAuto = "auto"
	// ColumnarOn vectorizes every eligible stage regardless of size.
	ColumnarOn = "on"
	// ColumnarOff disables the columnar path.
	ColumnarOff = "off"
)

// planVec decides whether stage i runs vectorized and binds its kernel.
// Auto mode additionally requires that when specs[i] opens a row-local
// run, the whole contiguous run vectorizes — otherwise fusing the run
// into one sharded row pass beats vectorizing a prefix of it.
func planVec(env *task.Env, specs []task.Spec, i int, mode string, in *schema.Schema, n int) (colstore.Kernel, bool) {
	v, ok := specs[i].(task.Vectorizable)
	if !ok {
		return nil, false
	}
	if mode == ColumnarAuto && n < dag.ColumnarAutoThreshold {
		return nil, false
	}
	ker, out, ok := v.BindVec(env, task.Input{Schema: in})
	if !ok {
		return nil, false
	}
	if mode == ColumnarAuto {
		if _, isRL := specs[i].(task.RowLocal); isRL {
			s := out
			for j := i + 1; j < len(specs); j++ {
				rl, isRL := specs[j].(task.RowLocal)
				if !isRL {
					break
				}
				vj, ok := rl.(task.Vectorizable)
				if !ok {
					return nil, false
				}
				_, sj, ok := vj.BindVec(env, task.Input{Schema: s})
				if !ok {
					return nil, false
				}
				s = sj
			}
		}
	}
	return ker, true
}

// tryColumnar attempts stage i on the columnar path: a single-input
// kernel over the pipeline's current table, or the join kernel over a
// node's two inputs. out is nil when the stage should run on the row
// path instead (the mode is off, the planner declined, a table holds a
// column with no typed vector, or the kernel fell back at run time); err
// is a real stage failure. A column-backed table hands its batch over as
// is and the output wraps the kernel's batch, so consecutive columnar
// stages — and the nodes downstream — exchange vectors, never rows.
func (p *pipeline) tryColumnar(specs []task.Spec, i int, in []*table.Table, names []string) (out *table.Table, err error) {
	if len(in) == 2 && p.mode != ColumnarOff {
		return p.tryJoinStage(specs[i], in, names)
	}
	if len(in) != 1 || p.mode == ColumnarOff {
		return nil, nil
	}
	ker, ok := planVec(p.env, specs, i, p.mode, in[0].Schema(), in[0].Len())
	if !ok {
		return nil, nil
	}
	b, ok := colstore.FromTable(in[0])
	if !ok {
		return nil, nil
	}
	return p.runVecStage(specs[i], b.Len(), func() (*colstore.Batch, error) { return ker.Run(b) })
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
	return p.runVecStage(spec, rowsIn(in), func() (*colstore.Batch, error) { return ker.Run(lb, rb) })
}

// runVecStage hands one bound columnar stage — kernel is the kernel over
// its batches — to the stage runner, adding the usage-trace hook the row
// kernels call themselves.
func (p *pipeline) runVecStage(spec task.Spec, nIn int, kernel func() (*colstore.Batch, error)) (*table.Table, error) {
	return p.runStage(task.Describe(spec), PathColumnar, nIn, func() (*table.Table, []SubStage, error) {
		res, err := kernel()
		if err != nil {
			return nil, nil, err
		}
		if p.env != nil && p.env.Trace != nil {
			p.env.Trace(spec.Type(), res.Len())
		}
		return res.ToTable(), nil, nil
	})
}
