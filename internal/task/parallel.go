package task

import (
	"fmt"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// ParallelSpec implements the parallel composite (Figure 20): several
// row-local sub-tasks applied to the same input, each contributing its
// output columns. The composition is sequential — each sub-task sees the
// columns added by its predecessors — and runs so, each sub-task through
// its own Exec.
type ParallelSpec struct {
	memo
	// Names are the referenced task names, for display.
	Names []string
	// Subs are the resolved sub-specs: row-local tasks and parallels.
	Subs []Spec
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
		switch spec.(type) {
		case *FilterSpec, *MapSpec, *ProjectSpec, *ParallelSpec:
		default:
			return nil, fmt.Errorf("task %q: parallel entry T.%s (%s) is not row-local", def.Name, ref.Name, spec.Type())
		}
		s.Names = append(s.Names, ref.Name)
		s.Subs = append(s.Subs, spec)
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

// Exec implements Spec: each sub-task in turn, through its own Exec, over
// the output of the one before it.
func (s *ParallelSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	for i, sub := range s.Subs {
		t, err := sub.Exec(env, in, names)
		if err != nil {
			return nil, fmt.Errorf("parallel stage %d (T.%s): %w", i+1, s.Names[i], err)
		}
		in = []*table.Table{t}
	}
	return in[0], nil
}
