// Columnar execution: the batch engine's vectorized path.
//
// Per node, a planner decision (the `columnar:` data detail, or the
// executor default) selects between the row kernels and the colstore
// kernels. The columnar path takes the pipeline's current table as a
// column batch (its own storage when it is column-backed, one
// conversion when it is not), streams it through consecutive vectorized
// stages without materializing rows (a node's two-input first stage, the
// join, takes both inputs' batches), and falls back to the row kernels
// — per stage — whenever a spec, schema or value distribution has no
// typed path. Both paths are semantically identical; the differential harness
// in internal/engine/enginetest asserts it.
package batch

import (
	"errors"
	"sync/atomic"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// The planner modes of the `columnar:` data detail.
const (
	// ColumnarAuto vectorizes eligible stages on inputs of at least
	// columnarAutoThreshold rows, and never splits a fusable row-local
	// run for a partially vectorizable chain.
	ColumnarAuto = "auto"
	// ColumnarOn vectorizes every eligible stage regardless of size.
	ColumnarOn = "on"
	// ColumnarOff disables the columnar path.
	ColumnarOff = "off"
)

// columnarAutoThreshold is the input cardinality below which auto mode
// keeps the row kernels: batch conversion has a fixed cost that tiny
// dashboard tables never amortize. It aliases the dag constant so the
// cost-based planner's path predictions use the same cutoff.
const columnarAutoThreshold = dag.ColumnarAutoThreshold

// ValidColumnarMode reports whether s is a recognized planner mode.
// The flow-file validator and flowlint use it; "" (unset) is not valid
// here — callers treat unset as auto.
func ValidColumnarMode(s string) bool {
	return s == ColumnarAuto || s == ColumnarOn || s == ColumnarOff
}

// columnarMode resolves the effective planner mode from the node-level
// detail and the executor default. Unset or invalid values resolve to
// auto (the validator rejects invalid values before execution; this is
// belt-and-braces for programmatic callers).
func (e *Executor) columnarMode(node string) string {
	if ValidColumnarMode(node) {
		return node
	}
	if ValidColumnarMode(e.Columnar) {
		return e.Columnar
	}
	return ColumnarAuto
}

// planVec decides whether stage i runs vectorized and binds its kernel.
// Auto mode additionally requires that when specs[i] opens a row-local
// run, the whole contiguous run vectorizes — otherwise fusing the run
// into one sharded row pass beats vectorizing a prefix of it.
func planVec(env *task.Env, specs []task.Spec, i int, mode string, in *schema.Schema, n int) (colstore.Kernel, bool) {
	v, ok := specs[i].(task.Vectorizable)
	if !ok {
		return nil, false
	}
	if mode == ColumnarAuto && n < columnarAutoThreshold {
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

// tryColumnar attempts stage i on the columnar path: the single-input
// kernels over the pipeline's current table, the join kernel over a
// node's two inputs. out is nil when the stage should run on the row
// path instead; err is a real stage failure.
func (e *Executor) tryColumnar(env *task.Env, specs []task.Spec, i int, mode string, in []*table.Table, names []string, record func(StageTiming), tr obs.Tracer, parent int, fb *atomic.Int64) (out *table.Table, err error) {
	switch len(in) {
	case 1:
		return e.tryVecStage(env, specs, i, mode, in[0], record, tr, parent, fb)
	case 2:
		return e.tryJoinStage(env, specs[i], mode, in, names, record, tr, parent, fb)
	}
	return nil, nil
}

// tryVecStage attempts stage i on the columnar path over the pipeline's
// current table. out is nil when the stage should run on the row path
// instead (planner declined, the table holds a column with no typed
// vector, or the kernel fell back at run time); err is a real stage
// failure. A column-backed table hands its batch over as is and the
// output wraps the kernel's batch, so consecutive columnar stages — and
// the nodes downstream — exchange vectors, never rows.
func (e *Executor) tryVecStage(env *task.Env, specs []task.Spec, i int, mode string, in *table.Table, record func(StageTiming), tr obs.Tracer, parent int, fb *atomic.Int64) (out *table.Table, err error) {
	ker, ok := planVec(env, specs, i, mode, in.Schema(), in.Len())
	if !ok {
		return nil, nil
	}
	b, ok := colstore.FromTable(in)
	if !ok {
		return nil, nil
	}
	return runVecStage(env, specs[i], b.Len(), func() (*colstore.Batch, error) { return ker.Run(b) }, record, tr, parent, fb)
}

// tryJoinStage is tryVecStage for a node's two-input first stage: the
// hash-join kernel over both inputs' batches. Auto mode thresholds on
// the probe (left) side, the one the kernel's work scales with row by
// row; the stage reports both inputs as its rows in, as the row join
// does.
func (e *Executor) tryJoinStage(env *task.Env, spec task.Spec, mode string, in []*table.Table, names []string, record func(StageTiming), tr obs.Tracer, parent int, fb *atomic.Int64) (out *table.Table, err error) {
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
	ker, swapped, ok := v.BindJoin(env, inputs[0], inputs[1])
	if !ok {
		return nil, nil
	}
	left, right := in[0], in[1]
	if swapped {
		left, right = right, left
	}
	if mode == ColumnarAuto && left.Len() < columnarAutoThreshold {
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
	return runVecStage(env, spec, rowsIn(in), func() (*colstore.Batch, error) { return ker.Run(lb, rb) }, record, tr, parent, fb)
}

// runVecStage executes one bound columnar stage — run is the kernel over
// its batches — with the row stages' panic isolation, span, timing and
// trace hook. A kernel that meets data it has no typed path for
// (colstore.ErrFallback) yields a nil table: the row kernel takes the
// stage, and the run's fallback counter moves by one.
func runVecStage(env *task.Env, spec task.Spec, nIn int, run func() (*colstore.Batch, error), record func(StageTiming), tr obs.Tracer, parent int, fb *atomic.Int64) (*table.Table, error) {
	desc := task.Describe(spec)
	sid := 0
	if tr != nil {
		sid = tr.StartSpan(parent, "stage "+desc)
		tr.SpanFlag(sid, "columnar")
	}
	start := time.Now()
	res, err := func() (res *colstore.Batch, err error) {
		defer recoverStage(desc, &err)
		return run()
	}()
	if err != nil {
		if errors.Is(err, colstore.ErrFallback) {
			if fb != nil {
				fb.Add(1)
			}
			if tr != nil {
				tr.SpanFlag(sid, "fallback")
				tr.EndSpan(sid)
			}
			return nil, nil
		}
		if tr != nil {
			tr.SpanFlag(sid, "error")
			tr.EndSpan(sid)
		}
		return nil, err
	}
	d := time.Since(start)
	record(StageTiming{Stage: desc, RowsIn: nIn, Rows: res.Len(), Duration: d, Path: PathColumnar})
	endStageSpan(tr, sid, nIn, res.Len(), d)
	if env != nil && env.Trace != nil {
		env.Trace(spec.Type(), res.Len())
	}
	return res.ToTable(), nil
}
