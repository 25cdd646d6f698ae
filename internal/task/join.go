package task

import (
	"fmt"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// JoinCondition enumerates the supported join types.
type JoinCondition int

// Join conditions, written in flow files as "inner", "left outer",
// "right outer" and "full outer" (case-insensitive, Appendix A mixes
// cases freely).
const (
	InnerJoin JoinCondition = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
)

// String renders the condition in flow-file form.
func (c JoinCondition) String() string {
	switch c {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left outer"
	case RightOuterJoin:
		return "right outer"
	case FullOuterJoin:
		return "full outer"
	default:
		return "join"
	}
}

// ProjPair maps one qualified input column (<object>_<column>) to an
// output column name, per the paper's join project blocks.
type ProjPair struct {
	Qualified string
	Out       string
}

// JoinSpec implements the join task (Appendix A.1): an equi-join of two
// data objects with explicit column projection.
type JoinSpec struct {
	memo
	// LeftName / RightName are the expected input data-object names.
	LeftName, RightName string
	// LeftKeys / RightKeys are the equi-join key columns.
	LeftKeys, RightKeys []string
	// Condition is the join type.
	Condition JoinCondition
	// Project lists output columns in order; empty means all columns of
	// both sides under their qualified names.
	Project []ProjPair
}

// parseBySide parses "players_tweets by player" or "t by (a, b)".
func parseBySide(s string) (name string, keys []string, err error) {
	i := strings.Index(s, " by ")
	if i < 0 {
		return "", nil, fmt.Errorf("join: side %q must be '<data> by <columns>'", s)
	}
	name = strings.TrimSpace(s[:i])
	rest := strings.TrimSpace(s[i+4:])
	rest = strings.TrimPrefix(rest, "(")
	rest = strings.TrimSuffix(rest, ")")
	for _, k := range strings.Split(rest, ",") {
		k = strings.TrimSpace(k)
		if k != "" {
			keys = append(keys, k)
		}
	}
	if name == "" || len(keys) == 0 {
		return "", nil, fmt.Errorf("join: side %q must be '<data> by <columns>'", s)
	}
	return name, keys, nil
}

func parseJoin(cfg *flowfile.Node) (Spec, error) {
	s := &JoinSpec{}
	var err error
	if s.LeftName, s.LeftKeys, err = parseBySide(cfg.Str("left")); err != nil {
		return nil, err
	}
	if s.RightName, s.RightKeys, err = parseBySide(cfg.Str("right")); err != nil {
		return nil, err
	}
	if len(s.LeftKeys) != len(s.RightKeys) {
		return nil, fmt.Errorf("join: %d left keys vs %d right keys", len(s.LeftKeys), len(s.RightKeys))
	}
	switch strings.ToLower(strings.Join(strings.Fields(cfg.Str("join_condition")), " ")) {
	case "", "inner":
		s.Condition = InnerJoin
	case "left outer", "left":
		s.Condition = LeftOuterJoin
	case "right outer", "right":
		s.Condition = RightOuterJoin
	case "full outer", "full":
		s.Condition = FullOuterJoin
	default:
		return nil, fmt.Errorf("join: unknown join_condition %q", cfg.Str("join_condition"))
	}
	if proj := cfg.Get("project"); proj != nil {
		if proj.Kind != flowfile.MapNode {
			return nil, fmt.Errorf("join: project must be a property block")
		}
		for _, e := range proj.Entries {
			if e.Value.Kind != flowfile.ScalarNode {
				return nil, fmt.Errorf("join: project entry %q must map to a column name", e.Key)
			}
			s.Project = append(s.Project, ProjPair{Qualified: e.Key, Out: e.Value.Scalar})
		}
	}
	return s, nil
}

// Type implements Spec.
func (s *JoinSpec) Type() string { return "join" }

// sides orders the two bind-time inputs as (left, right) by matching
// their data-object names against the configuration; swapped reports
// that in[1] is the left side. When names are unavailable (anonymous
// intermediates) positional order is used.
func (s *JoinSpec) sides(in []Input) (left, right Input, swapped bool, err error) {
	if len(in) != 2 {
		return Input{}, Input{}, false, fmt.Errorf("join: expected 2 inputs, got %d", len(in))
	}
	a, b := in[0], in[1]
	switch {
	case a.Name == s.LeftName && b.Name == s.RightName:
		return a, b, false, nil
	case a.Name == s.RightName && b.Name == s.LeftName:
		return b, a, true, nil
	case a.Name == "" || b.Name == "":
		return a, b, false, nil
	default:
		return Input{}, Input{}, false, fmt.Errorf("join: inputs (%s, %s) do not match configured sides (%s, %s)",
			a.Name, b.Name, s.LeftName, s.RightName)
	}
}

// qualCol is one output column's source: side 0 = left, 1 = right, and
// the column's index in that side's schema.
type qualCol struct {
	side int
	idx  int
}

// source binds a project source, <object>_<column>, to the side whose
// name and an underscore prefix it and whose schema has the rest. One
// that reads a column of both sides (left a: [b_x], right a_b: [x],
// source a_b_x) is ambiguous: an error naming both readings.
func (s *JoinSpec) source(q string, left, right *schema.Schema) (qualCol, error) {
	var slot qualCol
	found := 0
	for side, sc := range [2]*schema.Schema{left, right} {
		col, ok := strings.CutPrefix(q, [2]string{s.LeftName, s.RightName}[side]+"_")
		i := sc.Index(col)
		if !ok || i < 0 {
			continue
		}
		if found++; found == 2 {
			return qualCol{}, fmt.Errorf("join: project source %q is ambiguous: it reads both D.%s column %q and D.%s column %q",
				q, s.LeftName, left.Col(slot.idx).Name, s.RightName, col)
		}
		slot = qualCol{side: side, idx: i}
	}
	if found == 0 {
		return qualCol{}, fmt.Errorf("join: project source %q not found (inputs %s, %s)", q, s.LeftName, s.RightName)
	}
	return slot, nil
}

// outPlan computes the output schema and the per-column source slots.
func (s *JoinSpec) outPlan(left, right Input) (*schema.Schema, []qualCol, error) {
	if _, err := left.Schema.Require(s.LeftKeys...); err != nil {
		return nil, nil, fmt.Errorf("join left: %w", err)
	}
	if _, err := right.Schema.Require(s.RightKeys...); err != nil {
		return nil, nil, fmt.Errorf("join right: %w", err)
	}
	n := len(s.Project)
	if n == 0 {
		n = left.Schema.Len() + right.Schema.Len()
	}
	cols, slots := make([]schema.Column, 0, n), make([]qualCol, 0, n)
	if len(s.Project) > 0 {
		for _, p := range s.Project {
			qc, err := s.source(p.Qualified, left.Schema, right.Schema)
			if err != nil {
				return nil, nil, err
			}
			cols = append(cols, schema.Column{Name: p.Out})
			slots = append(slots, qc)
		}
	} else {
		for i, c := range left.Schema.Columns() {
			cols = append(cols, schema.Column{Name: s.LeftName + "_" + c.Name})
			slots = append(slots, qualCol{side: 0, idx: i})
		}
		for i, c := range right.Schema.Columns() {
			cols = append(cols, schema.Column{Name: s.RightName + "_" + c.Name})
			slots = append(slots, qualCol{side: 1, idx: i})
		}
	}
	out, err := schema.New(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("join: %w", err)
	}
	return out, slots, nil
}

// Out implements Spec.
func (s *JoinSpec) Out(in []Input) (*schema.Schema, error) {
	left, right, _, err := s.sides(in)
	if err != nil {
		return nil, err
	}
	out, _, err := s.outPlan(left, right)
	return out, err
}

func joinKey(r table.Row, idx []int) string {
	var b strings.Builder
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteByte(byte(r[j].Kind()))
		b.WriteString(r[j].String())
	}
	return b.String()
}

// keepLeft / keepRight report whether the condition keeps that side's
// unmatched rows.
func (s *JoinSpec) keepLeft() bool {
	return s.Condition == LeftOuterJoin || s.Condition == FullOuterJoin
}

func (s *JoinSpec) keepRight() bool {
	return s.Condition == RightOuterJoin || s.Condition == FullOuterJoin
}

// Exec implements Spec: a sequential hash join building on the right
// side and probing with the left. It is the reference the columnar
// kernel (colstore.Join, bound by BindJoin) is checked against, and the
// path for boxed- or time-column inputs and the executor's off mode.
func (s *JoinSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("join: expected 2 inputs, got %d", len(in))
	}
	left, right, swapped, err := s.sides(inputsOf(in, names))
	if err != nil {
		return nil, err
	}
	lt, rt := in[0], in[1]
	if swapped {
		lt, rt = rt, lt
	}
	out, slots, err := s.outPlan(left, right)
	if err != nil {
		return nil, err
	}
	lIdx, _ := left.Schema.Require(s.LeftKeys...)
	rIdx, _ := right.Schema.Require(s.RightKeys...)

	rRows := rt.Rows()
	build := map[string][]int{}
	for i, r := range rRows {
		k := joinKey(r, rIdx)
		build[k] = append(build[k], i)
	}
	makeRow := func(lr, rr table.Row) table.Row {
		row := make(table.Row, len(slots))
		for i, sl := range slots {
			src := lr
			if sl.side == 1 {
				src = rr
			}
			if src == nil {
				row[i] = value.VNull
			} else {
				row[i] = src[sl.idx]
			}
		}
		return row
	}
	res := table.New(out)
	matched := make([]bool, len(rRows))
	for _, lr := range lt.Rows() {
		matches := build[joinKey(lr, lIdx)]
		if len(matches) == 0 && s.keepLeft() {
			res.Append(makeRow(lr, nil))
		}
		for _, ri := range matches {
			matched[ri] = true
			res.Append(makeRow(lr, rRows[ri]))
		}
	}
	if s.keepRight() {
		for i, rr := range rRows {
			if !matched[i] {
				res.Append(makeRow(nil, rr))
			}
		}
	}
	return res, nil
}
