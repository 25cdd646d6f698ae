// Package task implements the ShareInsights task library: the
// transformations configured in a flow file's T section and applied by
// flows and widget-interaction pipelines.
//
// A TaskDef from the flow file is *parsed* into a Spec (checking its
// configuration), and a Spec is *bound* against the schemas of its input
// data objects when a pipeline is compiled — the contextual check of
// §3.3 ("the task configuration assumes that it will be used in a
// context where the data source has a rating column"). Bound specs are
// executed by the engines in internal/engine.
//
// The package also hosts the extension registries of §4.2: user-defined
// task types, map operators and aggregates are registered through the
// same API the built-ins use and are indistinguishable from them — the
// property the paper's hackathon observation 2 singles out.
package task

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// Input describes one pipeline input at bind time: the data object's
// name (joins project columns as <object>_<column>) and schema.
type Input struct {
	// Name is the data-object name.
	Name string
	// Schema is the object's column structure.
	Schema *schema.Schema
}

// Spec is a parsed, type-checked task configuration.
type Spec interface {
	// Type returns the task type name (filter_by, groupby, …).
	Type() string
	// Out computes the output schema for the given inputs, failing when
	// a required column is missing — the bind-time contextual check.
	Out(in []Input) (*schema.Schema, error)
	// Exec runs the task on materialized inputs. Engines may use faster
	// paths (see RowLocal and Grouped) but Exec is the reference
	// semantics every implementation must match.
	Exec(env *Env, in []*table.Table, names []string) (*table.Table, error)
}

// RowFn transforms one input row, emitting zero or more output rows.
type RowFn func(r table.Row, emit func(table.Row)) error

// RowLocal is implemented by specs whose work is independent per row
// (filter, map). The batch engine shards such tasks across workers.
type RowLocal interface {
	Spec
	// BindRow returns the per-row transform and its output schema.
	BindRow(env *Env, in Input) (RowFn, *schema.Schema, error)
}

// Grouper accumulates rows into groups; Merge folds a peer accumulator
// in, enabling parallel partial aggregation.
type Grouper interface {
	Add(r table.Row) error
	Merge(other Grouper) error
	Result() (*table.Table, error)
}

// Grouped is implemented by specs with combinable aggregation semantics.
type Grouped interface {
	Spec
	NewGrouper(env *Env, in Input) (Grouper, error)
}

// Env carries everything a task may need at run time.
type Env struct {
	// Resources resolves auxiliary files referenced by task
	// configuration (dictionaries such as players.txt). Keys are the
	// names used in the flow file.
	Resources map[string][]byte
	// WidgetValue returns the current selection of a widget column for
	// interaction filters (§3.5.1); ok is false when the widget has no
	// selection, in which case the filter passes everything through.
	WidgetValue func(widget, column string) (vals []string, ok bool)
	// Parallelism caps worker fan-out in the batch engine; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// Trace, when non-nil, receives one call per executed task with the
	// task type and output cardinality. The telemetry pipeline behind
	// the Figure 31 usage dashboard hangs off this hook.
	Trace func(taskType string, outRows int)
}

// Resource returns a named auxiliary resource.
func (e *Env) Resource(name string) ([]byte, bool) {
	if e == nil || e.Resources == nil {
		return nil, false
	}
	b, ok := e.Resources[name]
	return b, ok
}

func (e *Env) trace(taskType string, rows int) {
	if e != nil && e.Trace != nil {
		e.Trace(taskType, rows)
	}
}

// ---------------------------------------------------------------------
// Registry

// Parser turns a task configuration block into a Spec.
type Parser func(cfg *flowfile.Node) (Spec, error)

// Registry maps task type names to parsers. The zero value is unusable;
// use NewRegistry, which pre-loads the platform task library.
type Registry struct {
	mu      sync.RWMutex
	parsers map[string]Parser
	builtin map[string]bool
}

// NewRegistry returns a registry pre-loaded with the platform's tasks:
// filter_by, groupby, join, topn, map, parallel, project, sort, distinct,
// union and limit.
func NewRegistry() *Registry {
	r := &Registry{parsers: map[string]Parser{}, builtin: map[string]bool{}}
	for name, p := range map[string]Parser{
		"filter_by": parseFilterBy,
		"groupby":   parseGroupBy,
		"join":      parseJoin,
		"topn":      parseTopN,
		"map":       parseMap,
		"project":   parseProject,
		"sort":      parseSort,
		"distinct":  parseDistinct,
		"union":     parseUnion,
		"limit":     parseLimit,
	} {
		r.parsers[name] = p
		r.builtin[name] = true
	}
	return r
}

// Register adds a task type. Registering over a platform task is
// rejected so user extensions cannot silently change pipeline semantics.
func (r *Registry) Register(name string, p Parser) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.builtin[name] {
		return fmt.Errorf("task: cannot replace platform task type %q", name)
	}
	r.parsers[name] = p
	return nil
}

// Types lists the registered task types, sorted.
func (r *Registry) Types() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.parsers))
	for n := range r.parsers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Parse resolves every task definition of a flow file by name: its spec,
// or the error its configuration earned. Each parser runs once per
// definition; a parallel composite (why the whole file is needed) shares
// the results of the subs it names.
func (r *Registry) Parse(f *flowfile.File) (map[string]Spec, map[string]error) {
	specs, errs := make(map[string]Spec, len(f.TaskOrder)), map[string]error{}
	for _, name := range f.TaskOrder {
		if sp, err := r.parseNamed(f, f.Tasks[name], nil, specs, errs); err != nil {
			errs[name] = err
		} else {
			specs[name] = sp
		}
	}
	return specs, errs
}

// parseNamed parses one definition, reading and recording every plain
// (non-parallel) definition's result in specs and errs.
func (r *Registry) parseNamed(f *flowfile.File, def *flowfile.TaskDef, stack []string, specs map[string]Spec, errs map[string]error) (Spec, error) {
	for _, s := range stack {
		if s == def.Name {
			return nil, fmt.Errorf("task %q: parallel composition cycle via %s", def.Name, strings.Join(stack, " -> "))
		}
	}
	if def.Type == "parallel" {
		return r.parseParallel(f, def, append(stack, def.Name), specs, errs)
	}
	if sp, ok := specs[def.Name]; ok {
		return sp, nil
	} else if err, ok := errs[def.Name]; ok {
		return nil, err
	}
	r.mu.RLock()
	p, ok := r.parsers[def.Type]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("task %q: unknown type %q (registered: %s)", def.Name, def.Type, strings.Join(r.Types(), ", "))
	}
	spec, err := p(def.Config)
	if err != nil {
		errs[def.Name] = fmt.Errorf("task %q: %w", def.Name, err)
		return nil, errs[def.Name]
	}
	specs[def.Name] = spec
	return spec, nil
}

// singleInput enforces the one-input shape shared by most tasks.
func singleInput(typ string, in []Input) (Input, error) {
	if len(in) != 1 {
		return Input{}, fmt.Errorf("%s: expected 1 input, got %d", typ, len(in))
	}
	return in[0], nil
}

// execRowLocal is the shared Bulk implementation for RowLocal specs.
func execRowLocal(s RowLocal, env *Env, in []*table.Table, names []string) (*table.Table, error) {
	t, name, err := oneTable(s.Type(), in, names)
	if err != nil {
		return nil, err
	}
	fn, out, err := s.BindRow(env, Input{Name: name, Schema: t.Schema()})
	if err != nil {
		return nil, err
	}
	res := table.New(out)
	emit := func(r table.Row) { res.Append(r) }
	for _, r := range t.Rows() {
		if err := fn(r, emit); err != nil {
			return nil, err
		}
	}
	env.trace(s.Type(), res.Len())
	return res, nil
}

func oneTable(typ string, in []*table.Table, names []string) (*table.Table, string, error) {
	if len(in) != 1 {
		return nil, "", fmt.Errorf("%s: expected 1 input, got %d", typ, len(in))
	}
	name := ""
	if len(names) > 0 {
		name = names[0]
	}
	return in[0], name, nil
}

// inputsOf converts tables+names into bind-time Inputs.
func inputsOf(in []*table.Table, names []string) []Input {
	out := make([]Input, len(in))
	for i, t := range in {
		n := ""
		if i < len(names) {
			n = names[i]
		}
		out[i] = Input{Name: n, Schema: t.Schema()}
	}
	return out
}
