package task

import (
	"fmt"
	"strconv"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// ProjectSpec implements the project task: keep only the named columns.
type ProjectSpec struct {
	// Columns are the retained columns, in output order.
	Columns []string
}

func parseProject(cfg *flowfile.Node) (Spec, error) {
	s := &ProjectSpec{Columns: cfg.StrList("columns")}
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("project: no columns")
	}
	return s, nil
}

// Type implements Spec.
func (s *ProjectSpec) Type() string { return "project" }

// Out implements Spec.
func (s *ProjectSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("project", in)
	if err != nil {
		return nil, err
	}
	return one.Schema.Project(s.Columns...)
}

// BindRow implements RowLocal.
func (s *ProjectSpec) BindRow(env *Env, in Input) (RowFn, *schema.Schema, error) {
	out, err := s.Out([]Input{in})
	if err != nil {
		return nil, nil, err
	}
	idx, err := in.Schema.Require(s.Columns...)
	if err != nil {
		return nil, nil, err
	}
	fn := func(r table.Row, emit func(table.Row)) error {
		nr := make(table.Row, len(idx))
		for i, j := range idx {
			nr[i] = r[j]
		}
		emit(nr)
		return nil
	}
	return fn, out, nil
}

// Exec implements Spec.
func (s *ProjectSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	return execRowLocal(s, env, in, names)
}

// SortSpec implements the sort task.
type SortSpec struct {
	// OrderBy are the sort keys.
	OrderBy []OrderKey
}

func parseSort(cfg *flowfile.Node) (Spec, error) {
	keys, err := parseOrderKeys(cfg.StrList("orderby_column"))
	if err != nil {
		return nil, fmt.Errorf("sort: %w", err)
	}
	return &SortSpec{OrderBy: keys}, nil
}

// Type implements Spec.
func (s *SortSpec) Type() string { return "sort" }

// Out implements Spec: sorting preserves columns.
func (s *SortSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("sort", in)
	if err != nil {
		return nil, err
	}
	for _, k := range s.OrderBy {
		if _, err := one.Schema.Require(k.Column); err != nil {
			return nil, err
		}
	}
	return one.Schema, nil
}

// Exec implements Spec.
func (s *SortSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	t, _, err := oneTable("sort", in, names)
	if err != nil {
		return nil, err
	}
	if _, err := s.Out(inputsOf(in, names)); err != nil {
		return nil, err
	}
	// Sorting permutes row headers only, so a shallow clone is all the
	// insulation the input needs.
	out := t.CloneShallow()
	if err := out.Sort(s.sortKeys()...); err != nil {
		return nil, err
	}
	env.trace("sort", out.Len())
	return out, nil
}

func (s *SortSpec) sortKeys() []table.SortKey {
	keys := make([]table.SortKey, len(s.OrderBy))
	for i, k := range s.OrderBy {
		keys[i] = table.SortKey{Column: k.Column, Desc: k.Desc}
	}
	return keys
}

// DistinctSpec implements the distinct task: drop duplicate rows,
// optionally considering only a subset of columns (first row wins).
type DistinctSpec struct {
	// Columns are the key columns; empty means all columns.
	Columns []string
}

func parseDistinct(cfg *flowfile.Node) (Spec, error) {
	return &DistinctSpec{Columns: cfg.StrList("columns")}, nil
}

// Type implements Spec.
func (s *DistinctSpec) Type() string { return "distinct" }

// Out implements Spec.
func (s *DistinctSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("distinct", in)
	if err != nil {
		return nil, err
	}
	if _, err := one.Schema.Require(s.Columns...); err != nil {
		return nil, err
	}
	return one.Schema, nil
}

// Exec implements Spec.
func (s *DistinctSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	t, _, err := oneTable("distinct", in, names)
	if err != nil {
		return nil, err
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = t.Schema().Names()
	}
	idx, err := t.Schema().Require(cols...)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	out := table.New(t.Schema())
	for _, r := range t.Rows() {
		k := joinKey(r, idx)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Append(r)
	}
	env.trace("distinct", out.Len())
	return out, nil
}

// UnionSpec implements the union task: concatenate same-schema inputs.
type UnionSpec struct{}

func parseUnion(cfg *flowfile.Node) (Spec, error) { return &UnionSpec{}, nil }

// Type implements Spec.
func (s *UnionSpec) Type() string { return "union" }

// Out implements Spec: all inputs must share a schema.
func (s *UnionSpec) Out(in []Input) (*schema.Schema, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("union: no inputs")
	}
	first := in[0].Schema
	for _, i := range in[1:] {
		if !first.Equal(i.Schema) {
			return nil, fmt.Errorf("union: input %q schema %s differs from %q schema %s",
				i.Name, i.Schema, in[0].Name, first)
		}
	}
	return first, nil
}

// Exec implements Spec.
func (s *UnionSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	sch, err := s.Out(inputsOf(in, names))
	if err != nil {
		return nil, err
	}
	out := table.New(sch)
	for _, t := range in {
		for _, r := range t.Rows() {
			out.Append(r)
		}
	}
	env.trace("union", out.Len())
	return out, nil
}

// LimitSpec implements the limit task: keep the first N rows.
type LimitSpec struct {
	// N is the row budget.
	N int
}

func parseLimit(cfg *flowfile.Node) (Spec, error) {
	n, err := strconv.Atoi(cfg.Str("limit"))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("limit: bad limit %q", cfg.Str("limit"))
	}
	return &LimitSpec{N: n}, nil
}

// Type implements Spec.
func (s *LimitSpec) Type() string { return "limit" }

// Out implements Spec.
func (s *LimitSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("limit", in)
	if err != nil {
		return nil, err
	}
	return one.Schema, nil
}

// Exec implements Spec.
func (s *LimitSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	t, _, err := oneTable("limit", in, names)
	if err != nil {
		return nil, err
	}
	out := t.Head(s.N)
	env.trace("limit", out.Len())
	return out, nil
}

// FuncSpec wraps a plain Go function as a task — the extension route of
// §4.2 item 4 ("transforming a data object via a native map reduce
// job"). A user task registered this way "looks no different from a
// platform provided task" (observation 2): the flow file references it
// as T.<name> exactly like built-ins.
type FuncSpec struct {
	// Name is the task type name.
	Name string
	// OutFn computes the output schema.
	OutFn func(in []Input) (*schema.Schema, error)
	// ExecFn performs the transformation.
	ExecFn func(env *Env, in []*table.Table, names []string) (*table.Table, error)
}

// Type implements Spec.
func (s *FuncSpec) Type() string { return s.Name }

// Out implements Spec.
func (s *FuncSpec) Out(in []Input) (*schema.Schema, error) { return s.OutFn(in) }

// Exec implements Spec.
func (s *FuncSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	t, err := s.ExecFn(env, in, names)
	if err != nil {
		return nil, err
	}
	env.trace(s.Name, t.Len())
	return t, nil
}

// RegisterFunc registers a user-defined task type backed by a Go
// function. The configuration block is handed to cfgFn so the task can
// read its own parameters, mirroring how Python/R/Java tasks receive
// their flow-file configuration in the paper's platform.
func (r *Registry) RegisterFunc(name string, build func(cfg *flowfile.Node) (*FuncSpec, error)) error {
	return r.Register(name, func(cfg *flowfile.Node) (Spec, error) {
		s, err := build(cfg)
		if err != nil {
			return nil, err
		}
		if s.Name == "" {
			s.Name = name
		}
		if s.OutFn == nil || s.ExecFn == nil {
			return nil, fmt.Errorf("task %q: FuncSpec needs OutFn and ExecFn", name)
		}
		return s, nil
	})
}

// describeSpec renders a short human-readable summary used by error
// messages and the data explorer's plan view.
func describeSpec(s Spec) string {
	switch t := s.(type) {
	case *FilterSpec:
		if t.Expression != "" {
			return "filter_by " + t.Expression
		}
		return "filter_by " + strings.Join(t.By, ",") + " from W." + t.SourceWidget
	case *GroupBySpec:
		return "groupby " + strings.Join(t.GroupBy, ",")
	case *JoinSpec:
		return fmt.Sprintf("join %s⋈%s (%s)", t.LeftName, t.RightName, t.Condition)
	case *TopNSpec:
		return fmt.Sprintf("topn %d by %v", t.Limit, t.OrderBy)
	case *MapSpec:
		return "map " + t.Operator
	case *ParallelSpec:
		return "parallel [" + strings.Join(t.Names, ", ") + "]"
	default:
		return s.Type()
	}
}

// Describe renders a short human-readable summary of a spec.
func Describe(s Spec) string { return describeSpec(s) }
