package task

import (
	"fmt"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// ParallelSpec implements the parallel composite (Figure 20): several
// row-local sub-tasks applied to the same input, each contributing its
// output columns. Semantically the composition is sequential — each
// sub-task sees the columns added by its predecessors — while engines
// are free to fuse the chain into one pass and shard it across workers,
// which is what "in parallel" buys on the cluster.
type ParallelSpec struct {
	// Names are the referenced task names, for display.
	Names []string
	// Subs are the resolved sub-specs; all must be RowLocal.
	Subs []RowLocal
}

func (r *Registry) parseParallel(f *flowfile.File, def *flowfile.TaskDef, stack []string, specs map[string]Spec, errs map[string]error) (Spec, error) {
	refs := def.Config.StrList("parallel")
	if len(refs) == 0 {
		return nil, fmt.Errorf("task %q: parallel needs a task list", def.Name)
	}
	s := &ParallelSpec{}
	for _, refText := range refs {
		ref, err := flowfile.ParseRef(refText)
		if err != nil {
			return nil, fmt.Errorf("task %q: %w", def.Name, err)
		}
		if ref.Section != "T" {
			return nil, fmt.Errorf("task %q: parallel entry %s is not a task", def.Name, ref)
		}
		sub, ok := f.Tasks[ref.Name]
		if !ok {
			return nil, fmt.Errorf("task %q: parallel references undefined task T.%s", def.Name, ref.Name)
		}
		spec, err := r.parseNamed(f, sub, stack, specs, errs)
		if err != nil {
			return nil, err
		}
		rl, ok := spec.(RowLocal)
		if !ok {
			return nil, fmt.Errorf("task %q: parallel entry T.%s (%s) is not row-local", def.Name, ref.Name, spec.Type())
		}
		s.Names = append(s.Names, ref.Name)
		s.Subs = append(s.Subs, rl)
	}
	return s, nil
}

// Type implements Spec.
func (s *ParallelSpec) Type() string { return "parallel" }

// Out implements Spec: the schema threads through every sub-task.
func (s *ParallelSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("parallel", in)
	if err != nil {
		return nil, err
	}
	cur := one
	for i, sub := range s.Subs {
		out, err := sub.Out([]Input{cur})
		if err != nil {
			return nil, fmt.Errorf("parallel stage %d (T.%s): %w", i+1, s.Names[i], err)
		}
		cur = Input{Name: cur.Name, Schema: out}
	}
	return cur.Schema, nil
}

// BindRow implements RowLocal by fusing the sub-task chain into a single
// per-row function.
func (s *ParallelSpec) BindRow(env *Env, in Input) (RowFn, *schema.Schema, error) {
	fns := make([]RowFn, len(s.Subs))
	cur := in
	for i, sub := range s.Subs {
		fn, out, err := sub.BindRow(env, cur)
		if err != nil {
			return nil, nil, fmt.Errorf("parallel stage %d (T.%s): %w", i+1, s.Names[i], err)
		}
		fns[i] = fn
		cur = Input{Name: cur.Name, Schema: out}
	}
	var chain func(i int, r table.Row, emit func(table.Row)) error
	chain = func(i int, r table.Row, emit func(table.Row)) error {
		if i == len(fns) {
			emit(r)
			return nil
		}
		var inner error
		err := fns[i](r, func(nr table.Row) {
			if e := chain(i+1, nr, emit); e != nil && inner == nil {
				inner = e
			}
		})
		if err != nil {
			return err
		}
		return inner
	}
	fn := func(r table.Row, emit func(table.Row)) error {
		return chain(0, r, emit)
	}
	return fn, cur.Schema, nil
}

// Exec implements Spec.
func (s *ParallelSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	return execRowLocal(s, env, in, names)
}
