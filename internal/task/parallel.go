package task

import (
	"fmt"

	"shareinsights/internal/flowfile"
)

// parseParallel checks the parallel composite (Figure 20) — several
// row-local sub-tasks applied in turn, each seeing the columns its
// predecessors added — and returns the plain tasks it stands for, in
// order, a nested parallel's in its place. It has no spec: the resolver
// puts those tasks into the chain where the reference was.
func (r *Registry) parseParallel(f *flowfile.File, def *flowfile.TaskDef, stack []string, specs map[string]Spec, errs map[string]error) ([]string, error) {
	refs := def.Config.StrList("parallel")
	if len(refs) == 0 {
		return nil, fmt.Errorf("task %q: parallel needs a task list", def.Name)
	}
	var names []string
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
		spec, subNames, err := r.parseNamed(f, sub, stack, specs, errs)
		if err != nil {
			return nil, err
		}
		if subNames != nil {
			names = append(names, subNames...)
			continue
		}
		switch spec.(type) {
		case *FilterSpec, *MapSpec, *ProjectSpec:
		default:
			return nil, fmt.Errorf("task %q: parallel entry T.%s (%s) is not row-local", def.Name, ref.Name, spec.Type())
		}
		names = append(names, ref.Name)
	}
	return names, nil
}
