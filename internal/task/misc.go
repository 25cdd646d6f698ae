package task

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// ProjectSpec implements the project task: keep only the named columns.
type ProjectSpec struct {
	memo
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

// Exec implements Spec: the named columns of the input's batch, shared
// (SEMANTICS.md §8).
func (s *ProjectSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	out, err := s.Out(inputsOf(in, names))
	if err != nil {
		return nil, err
	}
	cols, _ := in[0].Schema().Require(s.Columns...)
	b, _ := colstore.FromTable(in[0])
	return b.Project(out, cols).ToTable(), nil
}

// SortSpec implements the sort task.
type SortSpec struct {
	memo
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

// Exec implements Spec: the kernel over the input's batch, a stable
// sort (SEMANTICS.md §3) handed on as a selection.
func (s *SortSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	return execBound(env, s, in, names)
}

// sortKeys is an orderby_column list as table sort keys.
func sortKeys(order []OrderKey) []table.SortKey {
	keys := make([]table.SortKey, len(order))
	for i, k := range order {
		keys[i] = table.SortKey{Column: k.Column, Desc: k.Desc}
	}
	return keys
}

// DistinctSpec implements the distinct task: drop duplicate rows,
// optionally considering only a subset of columns (first row wins).
type DistinctSpec struct {
	memo
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

// Exec implements Spec: the first row of each key, in input order
// (SEMANTICS.md §9).
func (s *DistinctSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if _, err := s.Out(inputsOf(in, names)); err != nil {
		return nil, err
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = in[0].Schema().Names()
	}
	idx, _ := in[0].Schema().Require(cols...)
	b, _ := colstore.FromTable(in[0])
	return colstore.Distinct(b, idx).ToTable(), nil
}

// UnionSpec implements the union task: concatenate same-schema inputs.
type UnionSpec struct{ memo }

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

// Exec implements Spec: every input's rows in turn (SEMANTICS.md §10),
// read one at a time into one row and appended to a builder.
func (s *UnionSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	sch, err := s.Out(inputsOf(in, names))
	if err != nil {
		return nil, err
	}
	out, row := colstore.NewBuilder(sch), make([]value.V, sch.Len())
	for _, t := range in {
		b, _ := colstore.FromTable(t)
		for i := range b.Len() {
			b.Row(i, row)
			out.Append(row)
		}
	}
	return out.Table(), nil
}

// LimitSpec implements the limit task: keep the first N rows.
type LimitSpec struct {
	memo
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

// Exec implements Spec: the kernel over the input's batch, its first N
// rows handed on as a selection (SEMANTICS.md §7).
func (s *LimitSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	return execBound(env, s, in, names)
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
	return s.ExecFn(env, in, names)
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

// memo is what a built-in spec derives once and keeps as long as it
// lives: its stage name, built the first time it is asked for, and the
// kernels Bind binds for it. A program's specs live as long as the
// program, so its runs format and bind once, not per run.
type memo struct {
	once  sync.Once
	stage string
	bound atomic.Pointer[bound] // the last kernel Bind kept
}

func (m *memo) derived() *memo { return m }

type memoized interface{ derived() *memo }

// StageName is the span name of a stage running s: "stage " + Describe(s).
func StageName(s Spec) string {
	if m, ok := s.(memoized); ok {
		n := m.derived()
		n.once.Do(func() { n.stage = describe("stage ", s) })
		return n.stage
	}
	return describe("stage ", s)
}

// Describe renders a short human-readable summary of a spec, used by
// error messages, stage timings and history keys, and the plan view.
func Describe(s Spec) string {
	if _, ok := s.(memoized); ok {
		return StageName(s)[len("stage "):]
	}
	return describe("", s)
}

// describe formats prefix + s's description.
func describe(prefix string, s Spec) string {
	switch t := s.(type) {
	case *FilterSpec:
		if t.Expression != "" {
			return prefix + "filter_by " + t.Expression
		}
		return prefix + "filter_by " + strings.Join(t.By, ",") + " from W." + t.SourceWidget
	case *GroupBySpec:
		return prefix + "groupby " + strings.Join(t.GroupBy, ",")
	case *JoinSpec:
		return fmt.Sprintf("%sjoin %s⋈%s (%s)", prefix, t.LeftName, t.RightName, t.Condition)
	case *TopNSpec:
		return fmt.Sprintf("%stopn %d by %v", prefix, t.Limit, t.OrderBy)
	case *MapSpec:
		return prefix + "map " + t.Operator
	default:
		return prefix + s.Type()
	}
}
