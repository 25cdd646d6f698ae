package task

import (
	"fmt"

	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// Selection is a widget's current selection, as consumed by interaction
// filters. Range selections (date sliders) carry [lo, hi]; discrete
// selections carry the chosen values.
type Selection struct {
	// Values are the selected values (display form).
	Values []string
	// Range marks an interval selection: Values[0]..Values[1] inclusive.
	Range bool
}

// FilterSpec implements the filter_by task (Figure 7 and Figure 15). It
// has two modes:
//
//   - expression mode: `filter_expression: rating < 3` keeps rows whose
//     expression evaluates truthy;
//   - interaction mode: `filter_by: [cols]` with `filter_source:
//     W.widget` and `filter_val: [widget columns]` keeps rows whose
//     column values match the widget's current selection (§3.5.1). With
//     no selection the filter passes everything — the dashboard's
//     initial render.
type FilterSpec struct {
	memo
	// Expression is the filter expression as written (expression mode):
	// the display and identity form (Describe, plan hints).
	Expression string
	// Expr is Expression parsed, what every consumer binds and checks.
	Expr expr.Node
	// By are the data columns to filter (interaction mode).
	By []string
	// SourceWidget is the widget whose selection feeds the filter.
	SourceWidget string
	// Val are the widget columns providing values, aligned with By;
	// empty entries default to the By column.
	Val []string
	// exprOnly is the expression part of a filter of both modes, kept so
	// that it binds once, as a filter of its own.
	exprOnly *FilterSpec
}

// NewFilter returns an expression-mode filter_by, parsing src once.
func NewFilter(src string) (*FilterSpec, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return &FilterSpec{Expression: src, Expr: n}, nil
}

func parseFilterBy(cfg *flowfile.Node) (Spec, error) {
	s := &FilterSpec{By: cfg.StrList("filter_by"), Val: cfg.StrList("filter_val")}
	if src := cfg.Str("filter_source"); src != "" {
		ref, err := flowfile.ParseRef(src)
		if err != nil {
			return nil, fmt.Errorf("filter_by: bad filter_source: %w", err)
		}
		if ref.Section != "W" {
			return nil, fmt.Errorf("filter_by: filter_source %s must be a widget", ref)
		}
		s.SourceWidget = ref.Name
	}
	src := cfg.Str("filter_expression")
	if src == "" && len(s.By) == 0 {
		return nil, fmt.Errorf("filter_by: need filter_expression or filter_by columns")
	}
	if src != "" {
		f, err := NewFilter(src)
		if err != nil {
			return nil, err
		}
		s.Expression, s.Expr = f.Expression, f.Expr
		if len(s.By) > 0 {
			s.exprOnly = f
		}
	}
	if len(s.By) > 0 && s.SourceWidget == "" {
		return nil, fmt.Errorf("filter_by: filter_by columns need a filter_source widget")
	}
	if len(s.Val) > 0 && len(s.Val) != len(s.By) {
		return nil, fmt.Errorf("filter_by: filter_val has %d entries for %d filter_by columns", len(s.Val), len(s.By))
	}
	return s, nil
}

// Type implements Spec.
func (s *FilterSpec) Type() string { return "filter_by" }

// Out implements Spec: filters preserve columns.
func (s *FilterSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("filter_by", in)
	if err != nil {
		return nil, err
	}
	if s.Expr != nil {
		if _, err := one.Schema.Require(expr.Columns(s.Expr)...); err != nil {
			return nil, err
		}
	}
	if _, err := one.Schema.Require(s.By...); err != nil {
		return nil, err
	}
	return one.Schema, nil
}

// selected returns the positions of t's rows that match the widget's
// selection in every filter_by column with one.
func (s *FilterSpec) selected(env *Env, t *table.Table) []int32 {
	type pred struct {
		col int
		ok  func(value.V) bool
	}
	var preds []pred
	for i, col := range s.By {
		valCol := col
		if i < len(s.Val) && s.Val[i] != "" {
			valCol = s.Val[i]
		}
		if ok := s.selectionPred(env, valCol); ok != nil {
			preds = append(preds, pred{t.Schema().Index(col), ok})
		}
	}
	idx := make([]int32, 0, t.Len())
rows:
	for i := range t.Len() {
		for _, p := range preds {
			if !p.ok(t.At(i, p.col)) {
				continue rows
			}
		}
		idx = append(idx, int32(i))
	}
	return idx
}

// selectionPred builds the predicate for one interaction column from the
// widget's current selection; nil means no selection (pass-through).
func (s *FilterSpec) selectionPred(env *Env, widgetCol string) func(value.V) bool {
	if env == nil || env.WidgetValue == nil {
		return nil
	}
	vals, ok := env.WidgetValue(s.SourceWidget, widgetCol)
	if !ok || len(vals) == 0 {
		return nil
	}
	sel := ParseSelection(vals)
	if sel.Range && len(sel.Values) >= 2 {
		lo := value.Parse(sel.Values[0])
		hi := value.Parse(sel.Values[1])
		return func(v value.V) bool {
			v = normalizeForCompare(v, lo)
			return value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
		}
	}
	set := make(map[string]bool, len(sel.Values))
	for _, v := range sel.Values {
		set[v] = true
	}
	return func(v value.V) bool { return set[v.String()] }
}

// ParseSelection decodes the wire form of a widget selection: a leading
// "range:" marker flags an interval (sliders with range: true). Both
// interaction engines — this filter and the dashboard's cube plans —
// read selections through it.
func ParseSelection(vals []string) Selection {
	if len(vals) > 0 && vals[0] == "range:" {
		return Selection{Values: vals[1:], Range: true}
	}
	return Selection{Values: vals}
}

// normalizeForCompare aligns a cell with the selection's kind so that
// date strings in data compare against time-typed slider bounds.
func normalizeForCompare(v, bound value.V) value.V {
	if bound.Kind() == value.Time && v.Kind() == value.String {
		return value.Parse(v.Str())
	}
	return v
}

// Exec implements Spec: the expression on its kernel (SEMANTICS.md §4),
// then an interaction filter's selection, a Table.Select of the rows
// that match it.
func (s *FilterSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if len(s.By) == 0 {
		return execBound(env, s, in, names)
	}
	if _, err := s.Out(inputsOf(in, names)); err != nil {
		return nil, err
	}
	if s.exprOnly != nil {
		t, err := execBound(env, s.exprOnly, in, names)
		if err != nil {
			return nil, err
		}
		in = []*table.Table{t}
	}
	return in[0].Select(s.selected(env, in[0])), nil
}
